package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// reply is what a client saw of one lookup.
type reply struct {
	lane     string
	status   int
	degraded bool
}

// request draws one lookup as fafnir-loadgen draws it by default: 16
// distinct indices below rows from a Zipf(1.3) stream, summed.
func request(rng *rand.Rand, z *rand.Zipf, rows uint64, lane string) []byte {
	seen := map[uint64]bool{}
	var idx []uint64
	for len(idx) < 16 {
		if i := z.Uint64() % rows; !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	body, _ := json.Marshal(struct {
		Indices  []uint64 `json:"indices"`
		Op       string   `json:"op"`
		Priority string   `json:"priority,omitempty"`
	}{idx, "sum", lane})
	return body
}

// send posts one lookup and reports its status, and for a 200 whether the
// reply carried a degraded report. A transport error is status -1.
func send(addr, lane string, body []byte) reply {
	resp, err := http.Post("http://"+addr+"/v1/lookup", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{lane, -1, false}
	}
	defer resp.Body.Close()
	var wire struct {
		Degraded json.RawMessage `json:"degraded"`
	}
	degraded := resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&wire) == nil && len(wire.Degraded) > 0
	io.Copy(io.Discard, resp.Body)
	return reply{lane, resp.StatusCode, degraded}
}

// burst runs clients closed-loop users, each sending perClient lookups
// from its own stream seeded as fafnir-loadgen seeds its clients, and
// returns every reply.
func burst(addr string, clients, perClient int, rows uint64, seed int64) []reply {
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			z := rand.NewZipf(rng, 1.3, 1, rows-1)
			for range perClient {
				r := send(addr, "", request(rng, z, rows, ""))
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// requireDrain checks the last line run printed is a clean drain, of n
// queries when n is not negative.
func requireDrain(t *testing.T, lines []string, n int) {
	t.Helper()
	want := "drained cleanly: "
	if n >= 0 {
		want += fmt.Sprintf("%d queries in ", n)
	}
	if len(lines) == 0 || !strings.HasPrefix(lines[len(lines)-1], want) {
		t.Errorf("printed %q, want a last line starting %q", lines, want)
	}
}

// TestChaosGate: a 4-shard fleet whose fault plan loses shard 1 from fleet
// cycle 1 takes 64 lookups from 4 clients over its 131072 rows. Every
// reply is a 200 (the dead shard's reads fail over to its replica), at
// least one says it is degraded, shard 1 goes dark and fails over on
// /metrics, the fleet combines through the rnet tree, and the drain is
// clean.
func TestChaosGate(t *testing.T) {
	var replies []reply
	var page string
	lines := bootDrain(t, "-shards 4 -rows 4096 -faults shard=1@1;seed=7", func(addr string) {
		replies = burst(addr, 4, 16, 131072, 1)
		page = scrape(t, addr)
	})
	degraded := 0
	for _, r := range replies {
		if r.status != http.StatusOK {
			t.Errorf("a lookup through the dead shard answered %d", r.status)
		}
		if r.degraded {
			degraded++
		}
	}
	t.Logf("%d replies, %d degraded", len(replies), degraded)
	if len(replies) != 64 || degraded == 0 {
		t.Errorf("%d replies, %d degraded; want 64 with at least one degraded", len(replies), degraded)
	}
	for _, series := range []string{
		`fafnir_router_shard_dark_total{shard="1"}`,
		`fafnir_router_failovers_total{shard="1"}`,
		"fafnir_rnet_combines_total",
	} {
		if seriesValue(t, page, series) < 1 {
			t.Errorf("/metrics: %s below 1", series)
		}
	}
	requireDrain(t, lines, 64)
}

// TestQoSGate: with batch capacity above the queue bound every flush waits
// out the 200ms linger, so a 128-request open-loop burst at 8000 qps lands
// in one window and admission alone decides who sheds. The low lane caps
// at half the 64-query bound; the burst's high-priority requests (20 % of
// the mix, 25 with these seeds) always fit beside it. So no high request
// sheds, some low requests do, and shed_total{lane} counts exactly the
// 503s each lane's clients saw.
func TestQoSGate(t *testing.T) {
	const requests, interval = 128, time.Second / 8000
	var replies []reply
	var page string
	lines := bootDrain(t, "-rows 4096 -batch 128 -queue 64 -linger 200ms -cache-mb 16", func(addr string) {
		out := make([]reply, requests)
		var wg sync.WaitGroup
		begin := time.Now()
		for i := range requests {
			// Each request draws its lane, then its indices, from its own
			// seed, as fafnir-loadgen -qps -seed 11 -mix high=20,low=80 does.
			rng := rand.New(rand.NewSource(11 + int64(i) + 1))
			lane := "low"
			if rng.Intn(100) < 20 {
				lane = "high"
			}
			body := request(rng, rand.NewZipf(rng, 1.3, 1, 4095), 4096, lane)
			time.Sleep(time.Until(begin.Add(time.Duration(i) * interval)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i] = send(addr, lane, body)
			}()
		}
		wg.Wait()
		replies = out
		page = scrape(t, addr)
	})
	shed := map[string]int{}
	for _, r := range replies {
		switch {
		case r.status == http.StatusServiceUnavailable:
			shed[r.lane]++
		case r.lane == "high" && r.status != http.StatusOK:
			t.Errorf("a high-priority lookup answered %d", r.status)
		}
	}
	t.Logf("shed high=%d low=%d of %d requests", shed["high"], shed["low"], len(replies))
	if shed["high"] != 0 || shed["low"] == 0 {
		t.Errorf("shed high=%d low=%d: overload must shed only, and some, low-priority traffic", shed["high"], shed["low"])
	}
	for _, lane := range []string{"high", "normal", "low"} {
		if got := seriesValue(t, page, `fafnir_serve_shed_total{lane="`+lane+`"}`); got != float64(shed[lane]) {
			t.Errorf("/metrics: shed_total{lane=%q} = %v, the clients saw %d 503s", lane, got, shed[lane])
		}
	}
	requireDrain(t, lines, -1)
}

// TestCacheGate replays one seeded Zipf(1.3) workload, 2 clients x 128
// lookups over 4096 x 32 rows, against a cache-off and a 64 MiB cache-on
// server: the cache must cut backend reads per query by at least 25 % at a
// hit ratio of at least 0.5. The cache-off page must carry the registry's
// families: memory and PE counters, sub-millisecond latency buckets, live
// per-stage histograms and a burn rate per lane.
func TestCacheGate(t *testing.T) {
	pass := func(args string) string {
		var page string
		lines := bootDrain(t, args, func(addr string) {
			burst(addr, 2, 128, 4096, 3)
			page = scrape(t, addr)
		})
		requireDrain(t, lines, 256)
		return page
	}
	off, on := pass("-rows 4096"), pass("-rows 4096 -cache-mb 64")
	perQuery := func(page string) float64 {
		return seriesValue(t, page, "fafnir_serve_dram_reads_total") / seriesValue(t, page, "fafnir_serve_queries_total")
	}
	hits, misses := seriesValue(t, on, "fafnir_cache_hits_total"), seriesValue(t, on, "fafnir_cache_misses_total")
	ratio := hits / (hits + misses)
	t.Logf("%.2f reads/query cache off, %.2f on, hit ratio %.2f", perQuery(off), perQuery(on), ratio)
	if !(perQuery(on) <= 0.75*perQuery(off)) || !(ratio >= 0.5) {
		t.Errorf("cache cut reads/query %.2f -> %.2f at hit ratio %.2f; want at least 25 %% fewer at 0.5 or more",
			perQuery(off), perQuery(on), ratio)
	}
	for _, prefix := range []string{
		"fafnir_serve_row_misses_total ",
		"fafnir_serve_pe_reduces_total ",
		`fafnir_serve_request_seconds_bucket{le="2.5e-05"}`,
		`fafnir_serve_stage_seconds_bucket{stage="queue"`,
		`fafnir_slo_burn_rate{lane="high"}`,
		`fafnir_slo_burn_rate{lane="normal"}`,
		`fafnir_slo_burn_rate{lane="low"}`,
	} {
		if !strings.Contains(off, "\n"+prefix) {
			t.Errorf("/metrics lacks %s", prefix)
		}
	}
	if q := seriesValue(t, off, "fafnir_serve_queries_total"); q != 256 {
		t.Errorf("/metrics: %v queries served, want 256", q)
	}
	if seriesValue(t, off, `fafnir_serve_stage_seconds_count{stage="backend"}`) < 1 {
		t.Error("/metrics: the backend stage histogram is empty after a burst")
	}
}
