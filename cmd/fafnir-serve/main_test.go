package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fafnir"
)

// TestShapeFlagsAreErrors: every unusable shape comes back from run as an
// error naming the flag, before anything is built or printed. The first
// three rows panicked, served a single system, or silently changed the index
// space before topology.validate existed.
func TestShapeFlagsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args string
		flag string
	}{
		{"-shards 0 -radix 2", "-shards"},
		{"-fleets -2", "-fleets"},
		{"-rows 0", "-rows"},
		{"-rows 0 -shards 4", "-rows"},
		{"-rows 134217729", "-rows"},
		{"-ranks 0", "-ranks"},
		{"-ranks 7", "-ranks"},
		{"-ranks 32 -shards 3", "-ranks"},
		{"-ranks 4 -shards 4", "-ranks"},
		{"-batch 0", "-batch"},
		{"-j -1", "-j"},
		{"-radix 2", "-radix"},
		{"-radix 1 -shards 4", "-radix"},
		{"-radix -3 -fleets 2", "-radix"},
		{"-rows 1 -ranks 64 -shards 8 -fleets 8", "-rows"},
		{"-faults shard=1@1", "-faults"},
		{"-shards 4 -faults bogus", "-faults"},
		// Deleted flags fail in flag parsing, before anything is built.
		{"-shards 4 -fault-storm shard=1@1", "-fault-storm"},
		{"-fleets 2 -shards 4 -verify", "-verify"},
	} {
		var out strings.Builder
		err := run(context.Background(), strings.Fields(tc.args+" -addr 127.0.0.1:0"), &out)
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

// TestBootDrainTopologies boots the three deployments the server has, sends
// two serial requests and drains. The startup and drain lines are pinned as
// the serving CLI printed them before the shape flags chose the topology.
// The fleet's fault plan loses shard 1 from fleet cycle 1, so the second
// request must find it down: its failure counter names the loss as fired.
func TestBootDrainTopologies(t *testing.T) {
	const drained = "drained cleanly: 3 queries in 2 batches (coalesce factor 1.50, 4.33 reads/query)"
	for _, tc := range []struct{ args, startup, fired string }{
		{"-rows 4096",
			"system: 32 ranks, 131072 vectors, batch capacity 32, linger 500µs, queue bound 512, cache off", ""},
		{"-shards 4 -rows 4096 -faults shard=1@1;seed=7",
			"fleet: 4 shards x 8 ranks, rnet radix 2 (3 switches, depth 2), 131072 vectors, batch capacity 32, linger 500µs, queue bound 512, cache off",
			`fafnir_router_shard_failures_total{shard="1"}`},
		{"-fleets 2 -shards 4 -radix 2 -rows 4096",
			"federation: 2 fleets x 4 shards x 8 ranks, fleet combine rnet radix 2, cross-fleet rnet radix 2 (1 switches, depth 1), 131072 vectors, batch capacity 32, linger 500µs, queue bound 512, cache off", ""},
	} {
		lines := bootDrain(t, tc.args, func(addr string) {
			post(t, addr, `{"indices":[1,2,3,4,5,6,7,8]}`)
			post(t, addr, `{"queries":[[9,10],[11,12,13]],"op":"mean"}`)
			if tc.fired != "" && seriesValue(t, scrape(t, addr), tc.fired) < 1 {
				t.Errorf("%q: the shard loss never fired: %s below 1", tc.args, tc.fired)
			}
		})
		want := []string{"listening on 127.0.0.1:", tc.startup, "draining...", drained}
		if len(lines) != len(want) {
			t.Errorf("%q: printed %q, want %d lines", tc.args, lines, len(want))
			continue
		}
		for i := range want {
			if lines[i] != want[i] && (i > 0 || !strings.HasPrefix(lines[i], want[i])) {
				t.Errorf("%q: line %d = %q, want %q", tc.args, i, lines[i], want[i])
			}
		}
	}
}

// bootDrain runs the server in process on a free port, hands its address
// to drive, cancels, and returns every line run printed. The linger is
// 500us unless args set their own.
func bootDrain(t *testing.T, args string, drive func(addr string)) []string {
	t.Helper()
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, strings.Fields("-linger 500us "+args+" -addr 127.0.0.1:0"), pw)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	var lines []string
	for len(lines) < 2 && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 2 {
		drive(strings.TrimPrefix(lines[0], "listening on "))
		// A connection dialed for a burst but never used would hold the
		// drain for the server's 5 s grace on unused connections.
		http.DefaultClient.CloseIdleConnections()
	}
	cancel()
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := <-done; err != nil {
		t.Fatalf("%q: run: %v", args, err)
	}
	return lines
}

// post sends body to /v1/lookup and requires a 200. It reports with
// t.Errorf, so client goroutines may call it.
func post(t *testing.T, addr, body string) {
	if r := send(addr, "", []byte(body)); r.status != http.StatusOK {
		t.Errorf("POST %s answered %d", body, r.status)
	}
}

// TestFederationGate boots a 2-fleet x 4-shard federation and fires 64 mean
// lookups of 16 distinct Zipf-drawn indices from 4 concurrent clients over
// the federation's whole index space (4096 rows x 32 tables). Every one
// must answer 200: each shard pass checks its outputs bit for bit against
// the fold of the rows its leaf read, so a divergence inside any member is
// a 5xx. Oracle exactness across the shard and fleet combine trees is the
// router tests' and the benchmark reply check's job. Before the drain,
// /metrics must show the federation's batch and per-fleet lookup counters,
// the cross-fleet rnet combines and the shards' row-buffer outcomes all
// counting; the drain must be clean and account for every query.
func TestFederationGate(t *testing.T) {
	const clients, perClient, indices = 4, 16, 16
	var page string
	lines := bootDrain(t, "-fleets 2 -shards 4 -radix 2 -rows 4096", func(addr string) {
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				zipf := rand.NewZipf(rand.New(rand.NewSource(int64(5+c))), 1.3, 1, 4096*32-1)
				for range perClient {
					seen := map[uint64]bool{}
					var idx []string
					for len(idx) < indices {
						if i := zipf.Uint64(); !seen[i] {
							seen[i] = true
							idx = append(idx, strconv.FormatUint(i, 10))
						}
					}
					post(t, addr, `{"indices":[`+strings.Join(idx, ",")+`],"op":"mean"}`)
				}
			}()
		}
		wg.Wait()
		page = scrape(t, addr)
	})
	if len(lines) < 4 {
		t.Fatalf("printed %q", lines)
	}
	if !strings.HasPrefix(lines[1], "federation: 2 fleets x 4 shards") {
		t.Errorf("startup line %q does not name the topology", lines[1])
	}
	value := func(series string) float64 { return seriesValue(t, page, series) }
	for _, series := range []string{
		"fafnir_federation_batches_total",
		`fafnir_federation_fleet_lookups_total{fleet="0"}`,
		`fafnir_federation_fleet_lookups_total{fleet="1"}`,
		"fafnir_rnet_combines_total",
	} {
		if value(series) < 1 {
			t.Errorf("/metrics: %s below 1", series)
		}
	}
	if value("fafnir_serve_row_hits_total")+value("fafnir_serve_row_misses_total")+value("fafnir_serve_row_conflicts_total") < 1 {
		t.Error("/metrics: no row-buffer outcomes attributed through the federation")
	}
	want := fmt.Sprintf("drained cleanly: %d queries in ", clients*perClient)
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, want) {
		t.Errorf("last line %q, want a clean drain starting %q", last, want)
	}
}

// scrape returns the server's /metrics page.
func scrape(t *testing.T, addr string) string {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// seriesValue reads one series from a /metrics page, 0 when absent.
func seriesValue(t *testing.T, page, series string) float64 {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Errorf("%s: %v", series, err)
			}
			return f
		}
	}
	return 0
}

// namesFlag matches an error that starts by naming a topology flag.
var namesFlag = regexp.MustCompile(`^-(ranks|rows|batch|shards|fleets|radix|j) `)

// FuzzTopology: the shape flags never panic; a rejected shape is an error
// naming a flag, and an accepted one small enough to build builds the
// backend its shard and fleet counts select, over -rows x 32 vectors.
func FuzzTopology(f *testing.F) {
	f.Add(32, 4096, 32, 1, 1, 0, 0)
	f.Add(32, 4096, 32, 4, 1, 0, 0)
	f.Add(32, 4096, 32, 4, 2, 2, 0)
	f.Add(32, 4096, 32, 0, 1, 2, 0)
	f.Add(32, 4096, 32, 1, -2, 0, 0)
	f.Fuzz(func(t *testing.T, ranks, rows, batch, shards, fleets, radix, par int) {
		top := topology{ranks: ranks, rows: rows, batch: batch, shards: shards, fleets: fleets, radix: radix, par: par, seed: 1}
		if err := top.validate(); err != nil {
			if !namesFlag.MatchString(err.Error()) {
				t.Fatalf("%+v rejected by an error naming no flag: %v", top, err)
			}
			return
		}
		if ranks > 64 || rows > 4096 || batch > 64 || fleets > 8 {
			return // accepted, but too large to build in a fuzz iteration
		}
		b, err := top.build()
		if err != nil {
			t.Fatalf("%+v accepted but does not build: %v", top, err)
		}
		if got, want := b.TotalRows(), uint64(rows)*tables; got != want {
			t.Fatalf("%+v serves %d vectors, want %d", top, got, want)
		}
		want := "system:"
		switch {
		case fleets > 1:
			want = "federation:"
		case shards > 1:
			want = "fleet:"
		}
		if topo := b.(interface{ Topology() string }).Topology(); !strings.HasPrefix(topo, want) {
			t.Fatalf("%+v built %q, want a %s", top, topo, want)
		}
	})
}

func TestParseSLO(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[fafnir.Priority]time.Duration
		err  string // substring of the error; "" means accepted
	}{
		{"", nil, ""},
		{"high=50ms, low=1s", map[fafnir.Priority]time.Duration{fafnir.PriorityHigh: 50 * time.Millisecond, fafnir.PriorityLow: time.Second}, ""},
		{"high=50ms,high=1s", nil, `"high=1s" repeats lane high`},
		{"normal=1s,=2s", nil, `"=2s" repeats lane normal`},
		{"high=0s", nil, "must be positive"},
		{"high=fast", nil, "bad -slo duration"},
		{"urgent=1s", nil, "bad -slo lane"},
		{"high", nil, "bad -slo clause"},
	} {
		got, err := parseSLO(tc.in)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("parseSLO(%q) = %v, want %v", tc.in, err, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("parseSLO(%q) error = %v, want one mentioning %q", tc.in, err, tc.err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("parseSLO(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// FuzzParseSLO: the -slo grammar never panics, and whatever it accepts is a
// set of positive per-lane objectives that survives being written back out
// and parsed again.
func FuzzParseSLO(f *testing.F) {
	for _, s := range []string{"", "high=50ms,normal=250ms,low=1s", "high=50ms,high=1s", "low=1h", "=1s", " high = 5ms ", "high=0", "high=-1s", "high=1", "low=1s,,"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := parseSLO(s)
		if err != nil {
			return
		}
		var clauses []string
		for pri, d := range m {
			if d <= 0 {
				t.Fatalf("parseSLO(%q) accepted %v=%v", s, pri, d)
			}
			clauses = append(clauses, fmt.Sprintf("%v=%v", pri, d))
		}
		sort.Strings(clauses)
		full := strings.Join(clauses, ",")
		if again, err := parseSLO(full); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("parseSLO(%q) = %v, but its rendering %q parses to %v, %v", s, m, full, again, err)
		}
	})
}
