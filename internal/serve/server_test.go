package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fafnir"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/serve"
	"fafnir/internal/tensor"
)

// fakeSystem adapts fakeBackend to the serve.System interface for HTTP-level
// tests that need a gated or failing backend.
type fakeSystem struct {
	*fakeBackend
	rows uint64
}

func (f *fakeSystem) TotalRows() uint64 { return f.rows }

func newTestServer(t *testing.T, sys serve.System, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(context.Background())
	})
	return srv, ts
}

func postLookup(t *testing.T, base string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/lookup", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("undecodable response (status %s): %v", resp.Status, err)
	}
	return resp, decoded
}

// TestServerBitIdentical serves a multi-query request over HTTP, then drains
// and runs the identical batch through sys.Lookup and the independent golden
// oracle: all three must agree bit for bit. float32 survives a JSON round
// trip exactly, so the comparison is legitimate.
func TestServerBitIdentical(t *testing.T) {
	sys := testSystem(t, fafnir.SystemConfig{})
	srv, ts := newTestServer(t, sys, serve.Config{})

	payload := `{"queries": [[1,2,3,4], [2,3,900,901], [5]], "op": "mean"}`
	resp, _ := postLookup(t, ts.URL, payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup: %s", resp.Status)
	}
	resp2, err := http.Post(ts.URL+"/v1/lookup", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Outputs []tensor.Vector `json:"outputs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(wire.Outputs) != 3 {
		t.Fatalf("got %d outputs, want 3", len(wire.Outputs))
	}

	// Stop the service, then compute the same answers directly.
	ts.Close()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	batch := embedding.Batch{
		Queries: []embedding.Query{query(1, 2, 3, 4), query(2, 3, 900, 901), query(5)},
		Op:      tensor.OpMean,
	}
	direct, err := sys.Lookup(batch)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := sys.Golden(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire.Outputs {
		if !wire.Outputs[i].Equal(direct.Outputs[i]) {
			t.Errorf("output %d: served differs from direct sys.Lookup", i)
		}
		if !wire.Outputs[i].Equal(golden[i]) {
			t.Errorf("output %d: served differs from the golden oracle", i)
		}
	}
}

// TestServerCoalescingWin is the acceptance check end to end: 8 concurrent
// clients with a seeded Zipf workload served through the coalescer must
// show strictly fewer DRAM reads per query on /metrics than the same
// workload issued one request per batch against an identical fresh system.
func TestServerCoalescingWin(t *testing.T) {
	const n = 8
	cfg := fafnir.SystemConfig{BatchCapacity: n}
	sys := testSystem(t, cfg)
	b, err := sys.GenerateBatch(n, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: identical system, one request per hardware batch.
	base := testSystem(t, cfg)
	baseline := 0
	for _, q := range b.Queries {
		res, err := base.Lookup(embedding.Batch{Queries: []embedding.Query{q}, Op: b.Op})
		if err != nil {
			t.Fatal(err)
		}
		baseline += res.MemoryReads
	}

	// Serve the same queries from n concurrent clients. Capacity n plus a
	// long linger makes the n-th arrival trigger exactly one full flush.
	_, ts := newTestServer(t, sys, serve.Config{BatchCapacity: n, Linger: time.Minute})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sb strings.Builder
			sb.WriteString(`{"indices": [`)
			for j, idx := range b.Queries[i].Indices {
				if j > 0 {
					sb.WriteString(",")
				}
				fmt.Fprintf(&sb, "%d", idx)
			}
			sb.WriteString(`]}`)
			resp, err := http.Post(ts.URL+"/v1/lookup", "application/json", strings.NewReader(sb.String()))
			if err != nil {
				errs[i] = err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("client %d: %s", i, resp.Status)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	var reads, queries, batches float64
	for _, line := range strings.Split(body, "\n") {
		fmt.Sscanf(line, "fafnir_serve_dram_reads_total %g", &reads)
		fmt.Sscanf(line, "fafnir_serve_queries_total %g", &queries)
		fmt.Sscanf(line, "fafnir_serve_batches_total %g", &batches)
	}
	if queries != n || batches != 1 {
		t.Fatalf("metrics report %v queries in %v batches, want %d in 1\n%s", queries, batches, n, body)
	}
	if perQ, basePerQ := reads/queries, float64(baseline)/n; perQ >= basePerQ {
		t.Fatalf("no coalescing win: served %.2f reads/query, baseline %.2f", perQ, basePerQ)
	}
}

// TestServerBadRequests exercises every request-validation rejection.
func TestServerBadRequests(t *testing.T) {
	sys := testSystem(t, fafnir.SystemConfig{})
	// One-query batches put the request bound at MaxRequestBatches = 4.
	_, ts := newTestServer(t, sys, serve.Config{BatchCapacity: 1})

	cases := []struct {
		name, body, wantErr string
	}{
		{"both fields", `{"indices": [1], "queries": [[2]]}`, "not both"},
		{"neither field", `{}`, "no queries"},
		{"unknown field", `{"indices": [1], "bogus": true}`, "bogus"},
		{"bad op", `{"indices": [1], "op": "median"}`, "median"},
		{"out of range", fmt.Sprintf(`{"indices": [%d]}`, testRowsPerTable*512), "out of range"},
		{"empty query", `{"queries": [[1], []]}`, "query 1 is empty"},
		{"too many queries", `{"queries": [[1],[2],[3],[4],[5]]}`, "limit is 4"},
		{"not json", `hello`, "bad request body"},
		{"trailing garbage", `{"queries":[[1,2,3]]} garbage`, "trailing data"},
		{"second object", `{"queries":[[1,2,3]]}{"queries":[[9]]}`, "trailing data"},
		{"trailing brace", `{"indices": [1]} }`, "trailing data"},
		{"negative timeout", `{"indices": [1], "timeout_ms": -5}`, "timeout_ms -5 out of range"},
		{"overflowing timeout", `{"indices": [1], "timeout_ms": 9223372036854775807}`, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, decoded := postLookup(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %s, want 400", resp.Status)
			}
			if decoded["kind"] != "bad_request" {
				t.Errorf("kind %v, want bad_request", decoded["kind"])
			}
			if msg, _ := decoded["error"].(string); !strings.Contains(msg, tc.wantErr) {
				t.Errorf("error %q does not mention %q", msg, tc.wantErr)
			}
		})
	}
}

// holdBackendAndQueue admits two one-query requests straight into the
// server's coalescer: the first parks the flusher at the fake's gate, the
// second then sits in the admission queue. Admission is synchronous, so when
// this returns the queue holds exactly one query.
func holdBackendAndQueue(t *testing.T, srv *serve.Server, fake *fakeSystem) [2]serve.Ticket {
	t.Helper()
	var held [2]serve.Ticket
	for i := range held {
		tk, err := srv.Coalescer().Admit(context.Background(), serve.Request{
			Op: tensor.OpSum, Queries: []embedding.Query{query(1, 2)}, Priority: serve.PriorityNormal,
		})
		if err != nil {
			t.Fatal(err)
		}
		held[i] = tk
		if i == 0 {
			<-fake.enter // the first request holds the backend; the queue is empty again
		}
	}
	return held
}

// TestServerOverload saturates the bounded queue and checks the server
// answers 503 with Retry-After while the backend is stuck.
func TestServerOverload(t *testing.T) {
	fake := &fakeSystem{fakeBackend: newFake(), rows: 1 << 16}
	fake.gate = make(chan struct{})
	fake.enter = make(chan struct{}, 16)
	srv, ts := newTestServer(t, fake, serve.Config{BatchCapacity: 1, MaxQueued: 1})

	release := sync.OnceFunc(func() { close(fake.gate) })
	defer release()

	held := holdBackendAndQueue(t, srv, fake)

	resp, decoded := postLookup(t, ts.URL, `{"indices": [5]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After")
	}
	if decoded["kind"] != "overloaded" {
		t.Errorf("kind %v, want overloaded", decoded["kind"])
	}

	release()
	for i, tk := range held {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
}

// TestServerDeadline gives a request a deadline shorter than the stuck
// backend and expects 504 within it.
func TestServerDeadline(t *testing.T) {
	fake := &fakeSystem{fakeBackend: newFake(), rows: 1 << 16}
	fake.gate = make(chan struct{})
	srv, ts := newTestServer(t, fake, serve.Config{BatchCapacity: 1})

	start := time.Now()
	resp, decoded := postLookup(t, ts.URL, `{"indices": [1], "timeout_ms": 30}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %s, want 504", resp.Status)
	}
	if decoded["kind"] != "deadline" {
		t.Errorf("kind %v, want deadline", decoded["kind"])
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("504 took %v, want roughly the 30ms deadline", took)
	}
	// The request was admitted before it timed out, so the flight recorder
	// files it under its real ID, joinable to its trace.
	if slowest := srv.SLO().Snapshot().Slowest; len(slowest) != 1 || slowest[0].ID != 1 || slowest[0].Good {
		t.Errorf("slowest ring = %+v, want the timed-out request filed bad under ID 1", slowest)
	}
	close(fake.gate)
}

// TestServerFaultKind routes a lookup of an index whose primary and replica
// ranks are both dark and expects a structured 500 rank_failed response.
func TestServerFaultKind(t *testing.T) {
	poison, dark, _ := poisonedIndexRanks(t)
	sys := testSystem(t, fafnir.SystemConfig{
		Faults: fafnir.FaultPlan{
			Seed: 7,
			RankFailures: []fafnir.RankFailure{
				{Rank: dark[0], At: 0},
				{Rank: dark[1], At: 0},
			},
		},
	})
	_, ts := newTestServer(t, sys, serve.Config{})
	resp, decoded := postLookup(t, ts.URL, fmt.Sprintf(`{"indices": [%d]}`, poison))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %s, want 500", resp.Status)
	}
	if decoded["kind"] != "rank_failed" {
		t.Errorf("kind %v, want rank_failed", decoded["kind"])
	}
}

// TestServerDrain checks the shutdown path: after Drain, lookups answer 503
// draining and healthz flips unhealthy.
func TestServerDrain(t *testing.T) {
	sys := testSystem(t, fafnir.SystemConfig{})
	srv, ts := newTestServer(t, sys, serve.Config{})

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, decoded := postLookup(t, ts.URL, `{"indices": [1]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || decoded["kind"] != "draining" {
		t.Fatalf("post-drain lookup: %s kind=%v, want 503 draining", resp.Status, decoded["kind"])
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: %s, want 503", hz.Status)
	}
}

// degradedSystem wraps fakeSystem and stamps every result with a canned
// degraded report, standing in for a fleet router that absorbed faults.
type degradedSystem struct {
	*fakeSystem
	report core.DegradedReport
}

func (d *degradedSystem) Lookup(b embedding.Batch) (*core.TimedResult, error) {
	res, err := d.fakeSystem.Lookup(b)
	if err != nil {
		return nil, err
	}
	r := d.report
	res.Degraded = &r
	return res, nil
}

// TestServerDegradedResponse drives a backend that degrades every batch and
// checks the wire contract: 200 with a populated degraded field, the request
// classified under the degraded outcome, and the degraded metric families
// advancing on /metrics.
func TestServerDegradedResponse(t *testing.T) {
	sys := &degradedSystem{
		fakeSystem: &fakeSystem{fakeBackend: newFake(), rows: 1 << 16},
		report: core.DegradedReport{
			FailedRanks: []int{5},
			LostQueries: []int{1},
			Shards: []core.ShardDegraded{
				{Shard: 2, State: "dark", LostQueries: 1, LostIndices: 3, Err: "fault: shard down"},
			},
		},
	}
	_, ts := newTestServer(t, sys, serve.Config{})

	resp, decoded := postLookup(t, ts.URL, `{"queries": [[1,2],[3,4],[5]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded lookup: %s, want 200", resp.Status)
	}
	deg, ok := decoded["degraded"].(map[string]any)
	if !ok {
		t.Fatalf("response carries no degraded object: %v", decoded)
	}
	if pq, _ := deg["partial_queries"].([]any); len(pq) != 1 || pq[0] != float64(1) {
		t.Errorf("partial_queries = %v, want [1]", deg["partial_queries"])
	}
	if fr, _ := deg["failed_ranks"].([]any); len(fr) != 1 || fr[0] != float64(5) {
		t.Errorf("failed_ranks = %v, want [5]", deg["failed_ranks"])
	}
	shards, _ := deg["shards"].([]any)
	if len(shards) != 1 {
		t.Fatalf("shards = %v, want one entry", deg["shards"])
	}
	sh := shards[0].(map[string]any)
	if sh["shard"] != float64(2) || sh["state"] != "dark" || sh["lost_indices"] != float64(3) {
		t.Errorf("shard entry = %v, want shard 2 dark with 3 lost indices", sh)
	}
	if msg, _ := sh["error"].(string); !strings.Contains(msg, "shard down") {
		t.Errorf("shard error %q does not name the fault", msg)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, line := range []string{
		`fafnir_serve_requests_total{outcome="degraded"} 1`,
		"fafnir_serve_degraded_total 1",
		"fafnir_serve_degraded_batches_total 1",
	} {
		if !strings.Contains(buf.String(), line) {
			t.Errorf("metrics missing %q\n%s", line, buf.String())
		}
	}
}

// TestServerDegradedRebasesLostQueries coalesces two single-query requests
// into one shared batch whose report loses batch-relative query 1, and checks
// each rider sees the loss in its own request coordinates: exactly one of the
// two responses reports partial query 0, the other reports none.
func TestServerDegradedRebasesLostQueries(t *testing.T) {
	sys := &degradedSystem{
		fakeSystem: &fakeSystem{fakeBackend: newFake(), rows: 1 << 16},
		report:     core.DegradedReport{LostQueries: []int{1}},
	}
	_, ts := newTestServer(t, sys, serve.Config{BatchCapacity: 2, Linger: time.Minute})

	var wg sync.WaitGroup
	bodies := make([]map[string]any, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/lookup", "application/json",
				strings.NewReader(fmt.Sprintf(`{"indices": [%d]}`, i+1)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("client %d: %s", i, resp.Status)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&bodies[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	partial := 0
	for i, body := range bodies {
		batch := body["batch"].(map[string]any)
		if batch["coalesced_requests"] != float64(2) {
			t.Fatalf("client %d rode a batch with %v requests, want 2", i, batch["coalesced_requests"])
		}
		deg, ok := body["degraded"].(map[string]any)
		if !ok {
			t.Fatalf("client %d got no degraded object: %v", i, body)
		}
		if pq, present := deg["partial_queries"].([]any); present {
			if len(pq) != 1 || pq[0] != float64(0) {
				t.Errorf("client %d partial_queries = %v, want [0]", i, pq)
			}
			partial++
		}
	}
	if partial != 1 {
		t.Fatalf("%d clients reported a partial query, want exactly the one at batch offset 1", partial)
	}
}

// testSplitmix64 mirrors the server's jitter hash so the test can pin the
// exact Retry-After sequence a seed produces.
func testSplitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestServerRetryAfterJitter saturates the queue and checks overload 503s
// carry deterministic seeded Retry-After jitter in {1, 2, 3} seconds: the
// exact sequence (seed 1, rejection number) predicts.
func TestServerRetryAfterJitter(t *testing.T) {
	const seed = 1
	fake := &fakeSystem{fakeBackend: newFake(), rows: 1 << 16}
	fake.gate = make(chan struct{})
	fake.enter = make(chan struct{}, 16)
	srv, ts := newTestServer(t, fake, serve.Config{BatchCapacity: 1, MaxQueued: 1})

	release := sync.OnceFunc(func() { close(fake.gate) })
	defer release()

	held := holdBackendAndQueue(t, srv, fake)

	for seq := uint64(1); seq <= 5; seq++ {
		resp, _ := postLookup(t, ts.URL, `{"indices": [5]}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("rejection %d: status %s, want 503", seq, resp.Status)
		}
		got := resp.Header.Get("Retry-After")
		want := strconv.FormatUint(1+testSplitmix64(seed^seq)%3, 10)
		if got != want {
			t.Errorf("rejection %d: Retry-After %q, want %q", seq, got, want)
		}
		if got != "1" && got != "2" && got != "3" {
			t.Errorf("rejection %d: Retry-After %q outside the jitter window {1,2,3}", seq, got)
		}
	}

	release()
	for i, tk := range held {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
}

// TestServerHealthzDuringDrain pins the shutdown ordering contract: the
// moment Drain begins, /healthz answers 503 so load balancers stop routing —
// yet requests already admitted to the queue still flush to completion, and
// the post-drain lookup rejection carries the fixed drain Retry-After.
func TestServerHealthzDuringDrain(t *testing.T) {
	fake := &fakeSystem{fakeBackend: newFake(), rows: 1 << 16}
	fake.gate = make(chan struct{})
	fake.enter = make(chan struct{}, 16)
	srv, ts := newTestServer(t, fake, serve.Config{BatchCapacity: 1})

	held := holdBackendAndQueue(t, srv, fake)

	// A Drain that cannot wait still begins the drain: health flips
	// unhealthy while both admitted requests are unanswered.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain on a cancelled context returned %v, want Canceled", err)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %s, want 503", hz.Status)
	}

	// Open the gate: both admitted requests must still complete.
	close(fake.gate)
	ctx, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelDrain()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i, tk := range held {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("queued request %d failed after drain: %v", i, err)
		}
	}

	resp, decoded := postLookup(t, ts.URL, `{"indices": [1]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || decoded["kind"] != "draining" {
		t.Fatalf("post-drain lookup: %s kind=%v, want 503 draining", resp.Status, decoded["kind"])
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("draining Retry-After = %q, want the fixed \"1\" (no jitter: the listener is going away)", ra)
	}
}

// TestServerNew covers constructor validation.
func TestServerNew(t *testing.T) {
	if _, err := serve.New(nil, serve.Config{}); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := serve.New(&fakeSystem{fakeBackend: newFake(), rows: 8}, serve.Config{MaxQueued: -1}); err == nil {
		t.Error("invalid config accepted")
	}
}
