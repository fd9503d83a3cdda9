// Command fafnir-loadgen drives a fafnir-serve instance with a Zipf-skewed
// lookup workload and reports client-side latency plus the server's measured
// coalescing win (reads per query, scraped from /metrics).
//
// Two load models:
//
//	closed loop: -clients N        N users issue requests back to back
//	open   loop: -qps R            requests arrive at a fixed rate R,
//	                               independent of completions
//
// Examples:
//
//	fafnir-loadgen -url http://127.0.0.1:8080 -clients 8 -duration 5s
//	fafnir-loadgen -url http://127.0.0.1:8080 -qps 10000 -duration 2s
//	fafnir-loadgen -clients 4 -requests 64 -dump-metrics
//	fafnir-loadgen -users 1000000 -clients 8            # per-user hot sets
//	fafnir-loadgen -qps 20000 -capacity 8 -duration 8s  # capacity sweep to the knee
//	fafnir-loadgen -qps 5000 -duration 2s -record w.jsonl   # capture the workload
//	fafnir-loadgen -replay w.jsonl                          # re-offer it verbatim
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fafnir/internal/telemetry"
	"fafnir/internal/trace"
)

// logger carries the run's summary output; text mode renders byte-identically
// to the fmt.Printf lines it replaced, json mode emits one object per line.
var logger *telemetry.Logger

// logf prints one summary line through the shared logger.
func logf(format string, args ...any) { logger.Infof(format, args...) }

type lookupRequest struct {
	Indices   []uint64 `json:"indices"`
	Op        string   `json:"op,omitempty"`
	Priority  string   `json:"priority,omitempty"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
}

type outcome struct {
	status  int
	latency time.Duration
	// pri is the request's QoS lane ("" when no -mix was given).
	pri string
	// degraded marks a 200 whose body carried a degraded report (the batch
	// absorbed faults; outputs may be partial).
	degraded bool
	// retries is how many 503 rejections this request retried through before
	// its terminal status.
	retries int
}

// priorityMix is the -mix flag parsed: percent of traffic on the high and
// low lanes, the rest travelling normal.
type priorityMix struct{ high, low int }

func (m priorityMix) active() bool { return m.high > 0 || m.low > 0 }

// pick draws one request's lane from the per-request rng, so the mix is
// deterministic under a fixed -seed.
func (m priorityMix) pick(rng *rand.Rand) string {
	if !m.active() {
		return ""
	}
	r := rng.Intn(100)
	switch {
	case r < m.high:
		return "high"
	case r < m.high+m.low:
		return "low"
	default:
		return "normal"
	}
}

// parseMix parses the -mix flag: comma-separated lane=percent clauses. Each
// lane may appear once; normal is the remainder, so a normal clause is only
// accepted when it agrees with 100 - high - low.
func parseMix(s string) (priorityMix, error) {
	if s == "" {
		return priorityMix{}, nil
	}
	type clause struct {
		text string
		pct  int
	}
	set := make(map[string]clause) // lane -> the clause that set it
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return priorityMix{}, fmt.Errorf("bad -mix clause %q (want lane=percent)", part)
		}
		pct, err := strconv.Atoi(v)
		if err != nil || pct < 0 || pct > 100 {
			return priorityMix{}, fmt.Errorf("bad -mix percent %q in clause %q", v, part)
		}
		if k != "high" && k != "normal" && k != "low" {
			return priorityMix{}, fmt.Errorf("unknown -mix lane %q (want high, normal, or low)", k)
		}
		if first, dup := set[k]; dup {
			return priorityMix{}, fmt.Errorf("-mix clause %q repeats lane %s (already set by %q)", part, k, first.text)
		}
		set[k] = clause{part, pct}
	}
	m := priorityMix{high: set["high"].pct, low: set["low"].pct}
	if m.high+m.low > 100 {
		return priorityMix{}, fmt.Errorf("-mix lanes sum past 100%%")
	}
	if normal, ok := set["normal"]; ok && normal.pct != 100-m.high-m.low {
		return priorityMix{}, fmt.Errorf("-mix clause %q disagrees with the other lanes: high=%d and low=%d leave %d%% for normal",
			normal.text, m.high, m.low, 100-m.high-m.low)
	}
	return m, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fafnir-loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "fafnir-serve base URL")
		clients  = flag.Int("clients", 4, "closed loop: concurrent users (ignored when -qps > 0)")
		qps      = flag.Float64("qps", 0, "open loop: offered request rate (0 = closed loop)")
		duration = flag.Duration("duration", 2*time.Second, "run length")
		requests = flag.Int("requests", 0, "total request cap (0 = duration-bound only)")
		q        = flag.Int("q", 16, "indices per query")
		rows     = flag.Uint64("rows", 1<<17, "index space to draw from (must not exceed the server's row count)")
		zipf     = flag.Float64("zipf", 1.3, "Zipf skew (<=1 draws uniformly)")
		seed     = flag.Int64("seed", 1, "workload seed")
		op       = flag.String("op", "sum", "pooling op: sum|min|max|mean")
		timeout  = flag.Int("timeout-ms", 0, "per-request timeout_ms field (0 = server default)")
		retries  = flag.Int("retries", 0, "max retries per request after a 503, honoring its Retry-After")
		retryU   = flag.Duration("retry-unit", time.Second, "how long one Retry-After second sleeps (compress for tests)")
		mixFlag  = flag.String("mix", "", `QoS priority mix, e.g. "high=20,low=80" (percent; the rest travels normal)`)
		users    = flag.Int64("users", 0, "simulated user population: each request belongs to a seeded user whose Zipf hot set is rotated to a user-specific region of the row space (0 = one shared hot set)")
		capSteps = flag.Int("capacity", 0, "capacity planning: sweep this many offered-QPS steps up to -qps, reporting p99 and shed per step and the saturation knee (requires -qps)")
		dump     = flag.Bool("dump-metrics", false, "print the raw /metrics body after the run")
		logFmt   = flag.String("log-format", "text", "summary output format: text or json")
		recPath  = flag.String("record", "", "capture the offered workload to this JSONL file (arrival offset, op, indices, lane, deadline per request)")
		rePath   = flag.String("replay", "", "replay a -record capture verbatim instead of generating load (workload flags are ignored)")
	)
	flag.Parse()

	var err error
	logger, err = telemetry.NewLogger(os.Stdout, *logFmt)
	if err != nil {
		return err
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var sent atomic.Int64
	cap64 := int64(*requests)
	admit := func() bool {
		if cap64 <= 0 {
			return true
		}
		return sent.Add(1) <= cap64
	}

	var (
		mu       sync.Mutex
		outcomes []outcome
	)
	record := func(o outcome) {
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
	}

	// fireReq posts one ready payload, honoring the 503 retry budget, and
	// records the outcome. Both generated and replayed requests funnel here.
	fireReq := func(payload []byte, pri string) {
		start := time.Now()
		var retried int
		for {
			status, degraded, retryAfter, err := post(client, *url, payload)
			if err != nil {
				record(outcome{status: -1, latency: time.Since(start), pri: pri, retries: retried})
				return
			}
			if status == http.StatusServiceUnavailable && retried < *retries {
				retried++
				time.Sleep(time.Duration(retryAfter) * *retryU)
				continue
			}
			record(outcome{status: status, latency: time.Since(start), pri: pri, degraded: degraded, retries: retried})
			return
		}
	}

	// The workload capture: every generated request appends one record at
	// fire time (arrival offset, op, indices, lane, deadline), written as
	// sorted JSONL after the run so -replay can re-offer it verbatim.
	var (
		recMu    sync.Mutex
		captured trace.Workload
	)
	begin := time.Now()
	fire := func(rng *rand.Rand, z *rand.Zipf) {
		pri := mix.pick(rng)
		var off uint64
		if *users > 0 {
			// Each request belongs to one of -users simulated users; the
			// user identity hashes (splitmix64) to an offset that rotates
			// the Zipf hot set into a user-specific region of the row
			// space, so the aggregate stream carries a long per-user tail
			// instead of one shared global head.
			off = splitmix64(uint64(*seed)^uint64(rng.Int63n(*users))) % *rows
		}
		idx := drawIndices(rng, z, *q, *rows, off)
		if *recPath != "" {
			rr := trace.Request{
				TUS: time.Since(begin).Microseconds(), Op: *op,
				Indices: idx, Lane: pri, TimeoutMS: *timeout,
			}
			recMu.Lock()
			captured = append(captured, rr)
			recMu.Unlock()
		}
		payload, _ := json.Marshal(lookupRequest{Indices: idx, Op: *op, Priority: pri, TimeoutMS: *timeout})
		fireReq(payload, pri)
	}

	// openLoop offers requests at a fixed rate for dur, independent of
	// completions, with bounded in-flight. The launch counter persists
	// across calls so per-request seeds stay unique through a capacity
	// sweep's steps.
	var launched int64
	openLoop := func(offered float64, dur time.Duration) {
		begin := time.Now()
		deadline := begin.Add(dur)
		interval := time.Duration(float64(time.Second) / offered)
		if interval <= 0 {
			interval = time.Microsecond
		}
		sem := make(chan struct{}, 4096)
		var wg sync.WaitGroup
		var stepLaunched int64
		for now := time.Now(); now.Before(deadline); now = time.Now() {
			if !admit() {
				break
			}
			launched++
			stepLaunched++
			wg.Add(1)
			sem <- struct{}{}
			go func(i int64) {
				defer wg.Done()
				defer func() { <-sem }()
				rng := rand.New(rand.NewSource(*seed + i))
				z := newZipf(rng, *zipf, *rows)
				fire(rng, z)
			}(launched)
			next := begin.Add(time.Duration(stepLaunched) * interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		wg.Wait()
	}

	switch {
	case *rePath != "":
		// Replay: re-offer a captured workload verbatim — same arrival
		// offsets, ops, indices, lanes, and deadlines; every workload flag
		// is ignored.
		reqs, err := trace.LoadFile(*rePath)
		if err != nil {
			return err
		}
		logf("replaying %d requests from %s", len(reqs), *rePath)
		sem := make(chan struct{}, 4096)
		var wg sync.WaitGroup
		for i := range reqs {
			rr := reqs[i]
			if d := time.Until(begin.Add(time.Duration(rr.TUS) * time.Microsecond)); d > 0 {
				time.Sleep(d)
			}
			payload, _ := json.Marshal(lookupRequest{Indices: rr.Indices, Op: rr.Op, Priority: rr.Lane, TimeoutMS: rr.TimeoutMS})
			wg.Add(1)
			sem <- struct{}{}
			go func(p []byte, lane string) {
				defer wg.Done()
				defer func() { <-sem }()
				fireReq(p, lane)
			}(payload, rr.Lane)
		}
		wg.Wait()
	case *capSteps > 0:
		// Capacity sweep: step the offered rate up to -qps, measuring each
		// step in isolation, then report the saturation knee.
		if *qps <= 0 {
			return fmt.Errorf("-capacity requires -qps (the sweep ceiling)")
		}
		stepDur := *duration / time.Duration(*capSteps)
		var steps []capStep
		for s := 1; s <= *capSteps; s++ {
			offered := *qps * float64(s) / float64(*capSteps)
			mark := len(outcomes)
			stepBegin := time.Now()
			openLoop(offered, stepDur)
			steps = append(steps, summarizeStep(offered, outcomes[mark:], time.Since(stepBegin)))
		}
		reportCapacity(steps)
		return scrape(client, *url, *dump)
	case *qps > 0:
		openLoop(*qps, *duration)
	default:
		deadline := begin.Add(*duration)
		var wg sync.WaitGroup
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed + int64(c)*7919))
				z := newZipf(rng, *zipf, *rows)
				for time.Now().Before(deadline) && admit() {
					fire(rng, z)
				}
			}(c)
		}
		wg.Wait()
	}
	elapsed := time.Since(begin)

	if *recPath != "" {
		if err := trace.SaveFile(*recPath, captured); err != nil {
			return err
		}
		logf("recorded %d requests to %s", len(captured), *recPath)
	}
	report(outcomes, elapsed, *qps)
	return scrape(client, *url, *dump)
}

// capStep is one measured rung of a -capacity sweep.
type capStep struct {
	offered  float64
	achieved float64
	ok       int
	shed     int
	other    int
	p50, p99 time.Duration
}

func summarizeStep(offered float64, outcomes []outcome, elapsed time.Duration) capStep {
	st := capStep{offered: offered}
	var lat []time.Duration
	for _, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			st.ok++
			lat = append(lat, o.latency)
		case http.StatusServiceUnavailable:
			st.shed++
		default:
			st.other++
		}
	}
	if elapsed > 0 {
		st.achieved = float64(st.ok) / elapsed.Seconds()
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(p float64) time.Duration { return lat[int(p*float64(len(lat)-1))] }
		st.p50, st.p99 = pct(0.50), pct(0.99)
	}
	return st
}

// reportCapacity prints the sweep table and locates the capacity knee: the
// first step that sheds load or whose p99 blows past 3x the first step's —
// the offered rate a deployment should plan under.
func reportCapacity(steps []capStep) {
	logf("capacity sweep:")
	logf("  offered qps  achieved qps    ok   shed  other       p50       p99")
	for _, st := range steps {
		logf("  %11.0f  %12.0f  %4d  %5d  %5d  %8v  %8v",
			st.offered, st.achieved, st.ok, st.shed, st.other,
			st.p50.Round(time.Microsecond), st.p99.Round(time.Microsecond))
	}
	if len(steps) == 0 {
		return
	}
	base := steps[0].p99
	for _, st := range steps {
		if st.shed > 0 || (base > 0 && st.p99 > 3*base) {
			why := "sheds load"
			if st.shed == 0 {
				why = fmt.Sprintf("p99 %v > 3x baseline %v", st.p99.Round(time.Microsecond), base.Round(time.Microsecond))
			}
			logf("capacity knee: ~%.0f offered qps (%s); plan below this rate", st.offered, why)
			return
		}
	}
	logf("no knee within sweep: clean through %.0f offered qps; raise -qps to find saturation",
		steps[len(steps)-1].offered)
}

func newZipf(rng *rand.Rand, s float64, rows uint64) *rand.Zipf {
	if s <= 1 {
		return nil
	}
	return rand.NewZipf(rng, s, 1, rows-1)
}

func drawIndices(rng *rand.Rand, z *rand.Zipf, q int, rows, off uint64) []uint64 {
	seen := make(map[uint64]struct{}, q)
	idx := make([]uint64, 0, q)
	for len(idx) < q {
		var v uint64
		if z != nil {
			v = z.Uint64()
		} else {
			v = uint64(rng.Int63n(int64(rows)))
		}
		v = (v + off) % rows // rotate into the drawing user's hot region
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		idx = append(idx, v)
	}
	return idx
}

// splitmix64 is the standard 64-bit finalizer: a cheap, well-mixed hash
// from user identity to hot-set offset, stable across runs under one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// post issues one lookup and reports (status, degraded, retryAfterSeconds).
// A 200 body is scanned for the degraded report; a 503's Retry-After header
// is parsed for the backoff hint (1 when absent or unparsable).
func post(client *http.Client, base string, payload []byte) (int, bool, int, error) {
	resp, err := client.Post(base+"/v1/lookup", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, false, 0, err
	}
	defer resp.Body.Close()
	retryAfter := 1
	if s := resp.Header.Get("Retry-After"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			retryAfter = v
		}
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, false, retryAfter, nil
	}
	var wire struct {
		Degraded json.RawMessage `json:"degraded"`
	}
	degraded := json.NewDecoder(resp.Body).Decode(&wire) == nil && len(wire.Degraded) > 0
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, degraded, retryAfter, nil
}

func report(outcomes []outcome, elapsed time.Duration, qps float64) {
	var ok, degraded, overload, deadline, errs, retried, retries int
	lat := make([]time.Duration, 0, len(outcomes))
	for _, o := range outcomes {
		switch {
		case o.status == http.StatusOK:
			ok++
			if o.degraded {
				degraded++
			}
			lat = append(lat, o.latency)
		case o.status == http.StatusServiceUnavailable:
			overload++
		case o.status == http.StatusGatewayTimeout:
			deadline++
		default:
			errs++
		}
		if o.retries > 0 {
			retried++
			retries += o.retries
		}
	}
	logf("sent %d in %v: %d ok, %d overload (503), %d deadline (504), %d other",
		len(outcomes), elapsed.Round(time.Millisecond), ok, overload, deadline, errs)
	if degraded > 0 || retried > 0 {
		logf("robustness: %d degraded (200 with partial or failed-over results), %d requests retried %d 503s",
			degraded, retried, retries)
	}
	if qps > 0 {
		logf("offered %.0f qps, achieved %.0f qps", qps, float64(ok)/elapsed.Seconds())
	} else {
		logf("achieved %.0f requests/sec", float64(ok)/elapsed.Seconds())
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(p float64) time.Duration { return lat[int(p*float64(len(lat)-1))] }
		logf("latency p50 %v  p95 %v  p99 %v  max %v",
			pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
			pct(0.99).Round(time.Microsecond), lat[len(lat)-1].Round(time.Microsecond))
	}
	reportLanes(outcomes)
}

// reportLanes breaks the run down per QoS lane when a -mix was active: how
// much of each lane succeeded, how much was shed (503), and the lane's
// latency percentiles — the p99-under-overload view the QoS gate checks.
func reportLanes(outcomes []outcome) {
	mixed := false
	for _, o := range outcomes {
		if o.pri != "" {
			mixed = true
			break
		}
	}
	if !mixed {
		return
	}
	for _, lane := range []string{"high", "normal", "low"} {
		var ok, shed, other int
		var lat []time.Duration
		for _, o := range outcomes {
			if o.pri != lane {
				continue
			}
			switch o.status {
			case http.StatusOK:
				ok++
				lat = append(lat, o.latency)
			case http.StatusServiceUnavailable:
				shed++
			default:
				other++
			}
		}
		if ok+shed+other == 0 {
			continue
		}
		line := fmt.Sprintf("lane %s: %d ok, %d shed (503), %d other", lane, ok, shed, other)
		if len(lat) > 0 {
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			pct := func(p float64) time.Duration { return lat[int(p*float64(len(lat)-1))] }
			line += fmt.Sprintf("  p50 %v  p99 %v",
				pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
		}
		logf("%s", line)
	}
}

// scrape pulls /metrics and prints the server-side coalescing summary.
func scrape(client *http.Client, base string, dump bool) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return fmt.Errorf("empty /metrics body")
	}
	vals := parseMetrics(string(raw))
	queries := vals["fafnir_serve_queries_total"]
	batches := vals["fafnir_serve_batches_total"]
	reads := vals["fafnir_serve_dram_reads_total"]
	naive := vals["fafnir_serve_naive_reads_total"]
	if queries > 0 && batches > 0 {
		logf("server: %.0f queries in %.0f batches (coalesce factor %.2f), %.2f reads/query (naive %.2f, saved %.0f%%)",
			queries, batches, queries/batches, reads/queries, naive/queries,
			100*(1-reads/naive))
	}
	if d := vals["fafnir_serve_degraded_total"]; d > 0 {
		logf("server: %.0f degraded responses from %.0f degraded batches",
			d, vals["fafnir_serve_degraded_batches_total"])
	}
	if hits, misses := vals["fafnir_cache_hits_total"], vals["fafnir_cache_misses_total"]; hits+misses > 0 {
		logf("server: cache %.0f hits / %.0f misses (hit ratio %.2f), %.0f evictions, %.0f resident bytes",
			hits, misses, hits/(hits+misses), vals["fafnir_cache_evictions_total"],
			vals["fafnir_cache_resident_bytes"])
	}
	sh, sn, sl := vals[`fafnir_serve_shed_total{lane="high"}`],
		vals[`fafnir_serve_shed_total{lane="normal"}`],
		vals[`fafnir_serve_shed_total{lane="low"}`]
	if sh+sn+sl > 0 {
		logf("server: shed high=%.0f normal=%.0f low=%.0f", sh, sn, sl)
	}
	rollup(vals, "fafnir_federation_fleet_lookups_total", "fleet", "fleet lookups")
	rollup(vals, "fafnir_router_shard_lookups_total", "shard", "shard lookups")
	if c := vals["fafnir_rnet_combines_total"]; c > 0 {
		logf("server: rnet combine — %.0f switch combines in %.0f fires, %.0f link hops, last critical path %.0f cycles",
			c, vals["fafnir_rnet_switch_fires_total"], vals["fafnir_rnet_link_transfers_total"],
			vals["fafnir_rnet_critical_path_cycles"])
	}
	if dump {
		os.Stdout.Write(raw)
	}
	return nil
}

// rollup prints the per-member traffic distribution of one labelled family
// (per-shard lookups in fleet mode, per-fleet lookups under a federation):
// total traffic, each member's share, and the hottest/coldest imbalance —
// the placement-skew view capacity planning reads first.
func rollup(vals map[string]float64, family, label, what string) {
	prefix := family + "{" + label + `="`
	type member struct {
		id int
		v  float64
	}
	var members []member
	var total float64
	for k, v := range vals {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`))
		if err != nil {
			continue
		}
		members = append(members, member{id: id, v: v})
		total += v
	}
	if len(members) == 0 || total == 0 {
		return
	}
	sort.Slice(members, func(i, j int) bool { return members[i].id < members[j].id })
	minM, maxM := members[0], members[0]
	var parts []string
	for _, m := range members {
		parts = append(parts, fmt.Sprintf("%d=%.0f", m.id, m.v))
		if m.v < minM.v {
			minM = m
		}
		if m.v > maxM.v {
			maxM = m
		}
	}
	line := fmt.Sprintf("server: %s %.0f total (%s)", what, total, strings.Join(parts, " "))
	if minM.v > 0 {
		line += fmt.Sprintf(", imbalance %.2fx (%s %d hottest, %s %d coldest)",
			maxM.v/minM.v, label, maxM.id, label, minM.id)
	}
	logf("%s", line)
}

// parseMetrics reads sample lines of the Prometheus text format. Unlabelled
// samples key by bare family name; labelled samples key by the full
// name{labels} string (e.g. `fafnir_serve_shed_total{lane="low"}`).
func parseMetrics(body string) map[string]float64 {
	vals := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			vals[name] = f
		}
	}
	return vals
}
