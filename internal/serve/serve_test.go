package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"fafnir/internal/fault"
	"fafnir/internal/telemetry"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; empty means valid
	}{
		{"zero is valid", Config{}, ""},
		{"full is valid", Config{BatchCapacity: 8, Linger: time.Millisecond, MaxQueued: 64, DefaultTimeout: time.Second}, ""},
		{"negative capacity", Config{BatchCapacity: -3}, "Config.BatchCapacity = -3"},
		{"negative linger", Config{Linger: -time.Second}, "Config.Linger = -1s"},
		{"negative queue", Config{MaxQueued: -1}, "Config.MaxQueued = -1"},
		{"negative timeout", Config{DefaultTimeout: -time.Millisecond}, "Config.DefaultTimeout = -1ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.BatchCapacity != 32 || c.MaxQueued != 512 || c.DefaultTimeout != 2*time.Second {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.Linger != 0 {
		t.Fatalf("Linger default should stay 0 (immediate flush), got %v", c.Linger)
	}
}

func TestOutcomeString(t *testing.T) {
	want := []string{"ok", "bad_request", "overload", "draining", "deadline", "error", "degraded"}
	for o := Outcome(0); o < numOutcomes; o++ {
		if o.String() != want[o] {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), o.String(), want[o])
		}
	}
	if s := Outcome(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown outcome renders %q", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := telemetry.NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 4, 100} {
		h.Observe(v)
	}
	// 0.5 and 1 land in le=1; 1.5 in le=2; 4 in le=4; 100 in +Inf.
	got := h.BucketCounts()
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 || h.Sum() != 107 {
		t.Fatalf("count/sum = %d/%v, want 5/107", h.Count(), h.Sum())
	}
	// +Inf consistency: the cumulative +Inf bucket count must equal the
	// total observation count, however the samples spread.
	var cum uint64
	for _, c := range got {
		cum += c
	}
	if cum != h.Count() {
		t.Fatalf("+Inf cumulative count %d != observation count %d", cum, h.Count())
	}
}

// TestRequestBucketsCoverSubMillisecond pins the satellite fix: a coalesced
// in-memory lookup completes in tens of microseconds, so the latency
// histogram must resolve below one millisecond rather than lumping the
// common case into its lowest bucket.
func TestRequestBucketsCoverSubMillisecond(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequest(OutcomeOK, 30*time.Microsecond)
	m.ObserveRequest(OutcomeOK, 700*time.Microsecond)
	var sb strings.Builder
	m.Render(&sb)
	out := sb.String()
	for _, line := range []string{
		`fafnir_serve_request_seconds_bucket{le="1e-05"} 0`,
		`fafnir_serve_request_seconds_bucket{le="2.5e-05"} 0`,
		`fafnir_serve_request_seconds_bucket{le="5e-05"} 1`,
		`fafnir_serve_request_seconds_bucket{le="0.001"} 2`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("render missing %q\n%s", line, out)
		}
	}
	if b := m.RequestSeconds.Bounds(); b[0] >= 0.0001 {
		t.Fatalf("lowest latency bound %v does not resolve sub-100µs lookups", b[0])
	}
}

func TestMetricsRender(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequest(OutcomeOK, 3*time.Millisecond)
	m.ObserveRequest(OutcomeOverload, 100*time.Microsecond)
	m.ObserveRequest(Outcome(-1), time.Millisecond) // clamps to error
	m.observeBatch(BatchStats{BatchQueries: 8, Requests: 4, MemoryReads: 40, NaiveReads: 128, TotalCycles: 1000, BytesRead: 4096})
	m.observeBatch(BatchStats{BatchQueries: 2, Requests: 1, MemoryReads: 20, NaiveReads: 32, TotalCycles: 500, BytesRead: 2048})
	m.QueueDepth.Set(7)

	var sb strings.Builder
	m.Render(&sb)
	out := sb.String()
	for _, line := range []string{
		`fafnir_serve_requests_total{outcome="ok"} 1`,
		`fafnir_serve_requests_total{outcome="overload"} 1`,
		`fafnir_serve_requests_total{outcome="error"} 1`,
		"fafnir_serve_queries_total 10",
		"fafnir_serve_batches_total 2",
		"fafnir_serve_coalesced_requests_total 4",
		"fafnir_serve_dram_reads_total 60",
		"fafnir_serve_naive_reads_total 160",
		"fafnir_serve_bytes_read_total 6144",
		"fafnir_serve_sim_cycles_total 1500",
		"fafnir_serve_queue_depth 7",
		"fafnir_serve_reads_per_query 6",
		"fafnir_serve_coalesce_factor 5",
		"fafnir_serve_request_seconds_count 3",
		`fafnir_serve_batch_queries_bucket{le="8"} 2`,
		`fafnir_serve_batch_queries_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("render missing %q\n%s", line, out)
		}
	}
	if m.ReadsPerQuery() != 6 {
		t.Errorf("ReadsPerQuery = %v, want 6", m.ReadsPerQuery())
	}
	if m.CoalesceFactor() != 5 {
		t.Errorf("CoalesceFactor = %v, want 5", m.CoalesceFactor())
	}
}

func TestMetricsZeroSafe(t *testing.T) {
	m := NewMetrics()
	if m.ReadsPerQuery() != 0 || m.CoalesceFactor() != 0 {
		t.Fatal("empty metrics should report zero ratios")
	}
	var sb strings.Builder
	m.Render(&sb)
	if !strings.Contains(sb.String(), "fafnir_serve_reads_per_query 0") {
		t.Fatalf("zero render broken:\n%s", sb.String())
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err     error
		outcome Outcome
		status  int
		kind    string
	}{
		{ErrOverloaded, OutcomeOverload, http.StatusServiceUnavailable, "overloaded"},
		{ErrDraining, OutcomeDraining, http.StatusServiceUnavailable, "draining"},
		{context.DeadlineExceeded, OutcomeDeadline, http.StatusGatewayTimeout, "deadline"},
		{context.Canceled, OutcomeDeadline, http.StatusGatewayTimeout, "deadline"},
		{fmt.Errorf("wrap: %w", fault.ErrRankFailed), OutcomeError, http.StatusInternalServerError, "rank_failed"},
		{fmt.Errorf("wrap: %w", fault.ErrRetriesExhausted), OutcomeError, http.StatusInternalServerError, "retries_exhausted"},
		{fmt.Errorf("wrap: %w", fault.ErrInvariantViolated), OutcomeError, http.StatusInternalServerError, "invariant_violated"},
		{errors.New("boom"), OutcomeError, http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		o, s, k := classify(tc.err)
		if o != tc.outcome || s != tc.status || k != tc.kind {
			t.Errorf("classify(%v) = %v/%d/%q, want %v/%d/%q", tc.err, o, s, k, tc.outcome, tc.status, tc.kind)
		}
	}
}
