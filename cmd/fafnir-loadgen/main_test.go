package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestBadFlagsAreErrors: each value comes back from run as an error naming
// its flag before any request is sent. "-rows 8 -q 16" used to hang (no 16
// distinct rows among 8) and "-rows 0" to panic with a division by zero.
func TestBadFlagsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args string
		flag string
	}{
		{"-rows 8 -q 16", "-q"},
		{"-rows 0", "-rows"},
		{"-rows 4294967297", "-rows"},
		{"-q 0", "-q"},
		{"-clients 0", "-clients"},
		{"-duration 0s", "-duration"},
		{"-requests -1", "-requests"},
		{"-timeout-ms -5", "-timeout-ms"},
		{"-retries -1", "-retries"},
		{"-users -3", "-users"},
		{"-qps -10", "-qps"},
		{"-qps NaN", "-qps"},
		{"-capacity 4", "-capacity"},
		{"-capacity -1 -qps 10", "-capacity"},
		{"-mix high=200", "-mix"},
		{"-log-format yaml", "format"},
	} {
		var out strings.Builder
		err := run(append(strings.Fields(tc.args), "-url", "http://127.0.0.1:1"), &out)
		if err == nil {
			t.Errorf("%q: accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%q: error %q does not name %s", tc.args, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed %q before rejecting its flags", tc.args, out.String())
		}
	}
}

// TestPacedDispatcher drives the open loop, a capacity sweep, the -requests
// cap and a replay against a stub server. Request i leaves at offset
// i/rate, so each run offers an exact count: 2000 qps for 20 ms is 40
// requests, a two-step sweep to 2000 qps over 20 ms is 10 + 20.
func TestPacedDispatcher(t *testing.T) {
	var served atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lookup", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		served.Add(1)
		io.WriteString(w, `{"outputs":[[0]]}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "fafnir_serve_queries_total 1\nfafnir_serve_batches_total 1\n")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	capture := filepath.Join(t.TempDir(), "w.jsonl")
	for _, tc := range []struct {
		args string
		want int64
		line string
	}{
		{"-qps 2000 -duration 20ms -record " + capture, 40, "sent 40 in "},
		{"-replay " + capture, 40, "sent 40 in "},
		{"-qps 2000 -duration 20ms -requests 7", 7, "sent 7 in "},
		{"-qps 2000 -capacity 2 -duration 20ms", 30, "capacity sweep:"},
	} {
		served.Store(0)
		var out strings.Builder
		if err := run(append(strings.Fields(tc.args), "-url", ts.URL, "-rows", "64", "-q", "4"), &out); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if got := served.Load(); got != tc.want {
			t.Errorf("%q: server saw %d requests, want %d", tc.args, got, tc.want)
		}
		if !strings.Contains(out.String(), tc.line) {
			t.Errorf("%q: output lacks %q:\n%s", tc.args, tc.line, out.String())
		}
	}
}

func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want priorityMix
		err  string // substring of the error; "" means accepted
	}{
		{"", priorityMix{}, ""},
		{"high=20,low=80", priorityMix{high: 20, low: 80}, ""},
		{"high=20, normal=70, low=10", priorityMix{high: 20, low: 10}, ""},
		{"normal=100", priorityMix{}, ""},
		{"high=20,normal=90", priorityMix{}, `"normal=90" disagrees`},
		{"normal=90,high=20", priorityMix{}, `"normal=90" disagrees`},
		{"high=10,high=30", priorityMix{}, `"high=30" repeats lane high`},
		{"low=5,normal=95,low=5", priorityMix{}, `"low=5" repeats lane low`},
		{"high=60,low=60", priorityMix{}, "sum past 100"},
		{"urgent=5", priorityMix{}, "unknown -mix lane"},
		{"high=101", priorityMix{}, "bad -mix percent"},
		{"high", priorityMix{}, "bad -mix clause"},
	} {
		got, err := parseMix(tc.in)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("parseMix(%q) = %v, want %+v", tc.in, err, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("parseMix(%q) error = %v, want one mentioning %q", tc.in, err, tc.err)
		case got != tc.want:
			t.Errorf("parseMix(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// FuzzParseMix: the -mix grammar never panics, and whatever it accepts is a
// mix whose lanes fit in 100% and which survives being written back out in
// full (all three lanes) and parsed again.
func FuzzParseMix(f *testing.F) {
	for _, s := range []string{"", "high=20,low=80", "high=20,normal=90", "high=10,high=30", "normal=100", "low=0", " high=1 ,low=2", "high==,", "high=-1", "high=1e2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := parseMix(s)
		if err != nil {
			return
		}
		if m.high < 0 || m.low < 0 || m.high+m.low > 100 {
			t.Fatalf("parseMix(%q) accepted %+v", s, m)
		}
		full := fmt.Sprintf("high=%d,normal=%d,low=%d", m.high, 100-m.high-m.low, m.low)
		if again, err := parseMix(full); err != nil || again != m {
			t.Fatalf("parseMix(%q) = %+v, but its rendering %q parses to %+v, %v", s, m, full, again, err)
		}
	})
}

// TestServerSummary scrapes a fixed /metrics page and checks every line of
// the server-side summary README.md documents: coalescing, degradation,
// cache, shed per lane, the per-member roll-ups with their imbalance, and
// the rnet combine.
func TestServerSummary(t *testing.T) {
	const page = `# HELP fafnir_serve_queries_total Queries served.
# TYPE fafnir_serve_queries_total counter
fafnir_serve_queries_total 100
fafnir_serve_batches_total 25
fafnir_serve_dram_reads_total 400
fafnir_serve_naive_reads_total 1600
fafnir_serve_degraded_total 3
fafnir_serve_degraded_batches_total 1
fafnir_cache_hits_total 30
fafnir_cache_misses_total 10
fafnir_cache_evictions_total 2
fafnir_cache_resident_bytes 4096
fafnir_serve_shed_total{lane="high"} 0
fafnir_serve_shed_total{lane="normal"} 1
fafnir_serve_shed_total{lane="low"} 7
fafnir_federation_fleet_lookups_total{fleet="0"} 6
fafnir_federation_fleet_lookups_total{fleet="1"} 4
fafnir_router_shard_lookups_total{shard="0"} 10
fafnir_router_shard_lookups_total{shard="1"} 40
fafnir_router_shard_lookups_total{shard="2"} 20
fafnir_router_shard_lookups_total{shard="3"} 30
fafnir_rnet_combines_total 12
fafnir_rnet_switch_fires_total 6
fafnir_rnet_link_transfers_total 18
fafnir_rnet_critical_path_cycles 42
`
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lookup", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"outputs":[[0]]}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, page) })
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var out strings.Builder
	if err := run([]string{"-url", ts.URL, "-clients", "1", "-requests", "2", "-rows", "64", "-q", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"server: 100 queries in 25 batches (coalesce factor 4.00), 4.00 reads/query (naive 16.00, saved 75%)",
		"server: 3 degraded responses from 1 degraded batches",
		"server: cache 30 hits / 10 misses (hit ratio 0.75), 2 evictions, 4096 resident bytes",
		"server: shed high=0 normal=1 low=7",
		"server: fleet lookups 10 total (0=6 1=4), imbalance 1.50x (fleet 0 hottest, fleet 1 coldest)",
		"server: shard lookups 100 total (0=10 1=40 2=20 3=30), imbalance 4.00x (shard 1 hottest, shard 0 coldest)",
		"server: rnet combine — 12 switch combines in 6 fires, 18 link hops, last critical path 42 cycles",
	} {
		if !strings.Contains(out.String(), "\n"+line+"\n") {
			t.Errorf("summary lacks %q:\n%s", line, out.String())
		}
	}
}
