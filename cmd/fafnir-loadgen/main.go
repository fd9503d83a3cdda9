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
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
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

// pick draws one request's lane from the per-request rng, so the mix is
// deterministic under a fixed -seed ("" when no -mix was given).
func (m priorityMix) pick(rng *rand.Rand) string {
	if m == (priorityMix{}) {
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
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "fafnir-loadgen:", err)
	os.Exit(1)
}

// run parses and checks args, offers the load, and writes the summary to
// out: a closed loop of -clients users, or the paced open-loop dispatcher
// fed by -qps, a -capacity sweep, or a -replay capture.
func run(args []string, out io.Writer) error {
	g, err := newLoadgen(args, out)
	if err != nil {
		return err
	}
	g.begin = time.Now()
	sweep := g.replayPath == "" && g.capSteps > 0
	switch {
	case g.replayPath != "":
		if err := g.replay(); err != nil {
			return err
		}
	case sweep:
		g.capacity()
	case g.qps > 0:
		g.openLoop(g.qps, g.duration)
	default:
		g.closedLoop()
	}
	elapsed := time.Since(g.begin)

	if g.recordPath != "" {
		if err := trace.SaveFile(g.recordPath, g.captured); err != nil {
			return err
		}
		logf("recorded %d requests to %s", len(g.captured), g.recordPath)
	}
	if !sweep {
		report(g.outcomes, elapsed, g.qps)
	}
	return g.scrape()
}

// loadgen is one run: its flags, the HTTP client, and what the run has
// offered and observed so far.
type loadgen struct {
	url, op                string
	clients, q, requests   int
	timeoutMS, retries     int
	capSteps               int
	qps, zipf              float64
	rows                   uint64
	seed, users            int64
	duration, retryUnit    time.Duration
	mix                    priorityMix
	dump                   bool
	recordPath, replayPath string

	out    io.Writer
	client *http.Client
	begin  time.Time
	sent   atomic.Int64 // requests admitted against the -requests cap

	mu       sync.Mutex
	outcomes []outcome
	captured trace.Workload // the -record capture, in fire order
}

// newLoadgen parses args and checks every flag, so a bad value is an error
// naming the flag before any request or goroutine starts.
func newLoadgen(args []string, out io.Writer) (*loadgen, error) {
	g := &loadgen{out: out, client: &http.Client{Timeout: 30 * time.Second}}
	fs := flag.NewFlagSet("fafnir-loadgen", flag.ContinueOnError)
	fs.StringVar(&g.url, "url", "http://127.0.0.1:8080", "fafnir-serve base URL")
	fs.IntVar(&g.clients, "clients", 4, "closed loop: concurrent users (ignored when -qps > 0)")
	fs.Float64Var(&g.qps, "qps", 0, "open loop: offered request rate (0 = closed loop)")
	fs.DurationVar(&g.duration, "duration", 2*time.Second, "run length")
	fs.IntVar(&g.requests, "requests", 0, "total request cap (0 = duration-bound only)")
	fs.IntVar(&g.q, "q", 16, "indices per query (distinct, so at most -rows)")
	fs.Uint64Var(&g.rows, "rows", 1<<17, "index space to draw from (must not exceed the server's row count)")
	fs.Float64Var(&g.zipf, "zipf", 1.3, "Zipf skew (<=1 draws uniformly)")
	fs.Int64Var(&g.seed, "seed", 1, "workload seed")
	fs.StringVar(&g.op, "op", "sum", "pooling op: sum|min|max|mean")
	fs.IntVar(&g.timeoutMS, "timeout-ms", 0, "per-request timeout_ms field (0 = server default)")
	fs.IntVar(&g.retries, "retries", 0, "max retries per request after a 503, honoring its Retry-After")
	fs.DurationVar(&g.retryUnit, "retry-unit", time.Second, "how long one Retry-After second sleeps (compress for tests)")
	mix := fs.String("mix", "", `QoS priority mix, e.g. "high=20,low=80" (percent; the rest travels normal)`)
	fs.Int64Var(&g.users, "users", 0, "simulated user population: each request belongs to a seeded user whose Zipf hot set is rotated to a user-specific region of the row space (0 = one shared hot set)")
	fs.IntVar(&g.capSteps, "capacity", 0, "capacity planning: sweep this many offered-QPS steps up to -qps, reporting p99 and shed per step and the saturation knee (requires -qps)")
	fs.BoolVar(&g.dump, "dump-metrics", false, "print the raw /metrics body after the run")
	logFmt := fs.String("log-format", "text", "summary output format: text or json")
	fs.StringVar(&g.recordPath, "record", "", "capture the offered workload to this JSONL file (arrival offset, op, indices, lane, deadline per request)")
	fs.StringVar(&g.replayPath, "replay", "", "replay a -record capture verbatim instead of generating load (workload flags are ignored)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	var err error
	if g.mix, err = parseMix(*mix); err != nil {
		return nil, err
	}
	if logger, err = telemetry.NewLogger(out, *logFmt); err != nil {
		return nil, err
	}
	return g, nil
}

// validate checks the numeric flags: the values that used to panic (a zero
// row space) or hang (more distinct indices per query than rows) are errors.
func (g *loadgen) validate() error {
	for _, f := range []struct {
		name       string
		value, min int64
	}{
		{"clients", int64(g.clients), 1}, {"q", int64(g.q), 1}, {"requests", int64(g.requests), 0},
		{"timeout-ms", int64(g.timeoutMS), 0}, {"retries", int64(g.retries), 0}, {"users", g.users, 0}, {"capacity", int64(g.capSteps), 0},
	} {
		if f.value < f.min {
			return fmt.Errorf("-%s must be at least %d, got %d", f.name, f.min, f.value)
		}
	}
	switch {
	case g.duration <= 0:
		return fmt.Errorf("-duration must be positive, got %v", g.duration)
	case g.rows == 0 || g.rows > 1<<32:
		return fmt.Errorf("-rows must be in [1, 2^32] (the server's 32-bit index space), got %d", g.rows)
	case uint64(g.q) > g.rows:
		return fmt.Errorf("-q %d exceeds -rows %d: a query's indices are distinct rows", g.q, g.rows)
	case !(g.qps >= 0):
		return fmt.Errorf("-qps must be non-negative, got %v", g.qps)
	case g.capSteps > 0 && g.qps == 0:
		return fmt.Errorf("-capacity requires -qps (the sweep ceiling)")
	}
	return nil
}

// admit counts one request against the -requests cap.
func (g *loadgen) admit() bool {
	return g.requests <= 0 || g.sent.Add(1) <= int64(g.requests)
}

// send posts one request, honoring the 503 retry budget, and records the
// outcome. Generated and replayed requests both funnel here.
func (g *loadgen) send(rr trace.Request) {
	payload, _ := json.Marshal(lookupRequest{Indices: rr.Indices, Op: rr.Op, Priority: rr.Lane, TimeoutMS: rr.TimeoutMS})
	start := time.Now()
	o := outcome{pri: rr.Lane}
	for {
		var retryAfter int
		o.status, o.degraded, retryAfter = post(g.client, g.url, payload)
		if o.status != http.StatusServiceUnavailable || o.retries == g.retries {
			break
		}
		o.retries++
		time.Sleep(time.Duration(retryAfter) * g.retryUnit)
	}
	o.latency = time.Since(start)
	g.mu.Lock()
	g.outcomes = append(g.outcomes, o)
	g.mu.Unlock()
}

// generate draws one request from rng (and z, when skewed), captures it for
// -record at its fire time, and sends it.
func (g *loadgen) generate(rng *rand.Rand, z *rand.Zipf) {
	pri := g.mix.pick(rng)
	var off uint64
	if g.users > 0 {
		// Each request belongs to one of -users simulated users; the user
		// identity hashes (splitmix64) to an offset that rotates the Zipf
		// hot set into a user-specific region of the row space, so the
		// aggregate stream carries a long per-user tail instead of one
		// shared global head.
		off = splitmix64(uint64(g.seed)^uint64(rng.Int63n(g.users))) % g.rows
	}
	rr := trace.Request{
		TUS: time.Since(g.begin).Microseconds(), Op: g.op,
		Indices: drawIndices(rng, z, g.q, g.rows, off), Lane: pri, TimeoutMS: g.timeoutMS,
	}
	if g.recordPath != "" {
		g.mu.Lock()
		g.captured = append(g.captured, rr)
		g.mu.Unlock()
	}
	g.send(rr)
}

// closedLoop runs -clients users, each issuing requests back to back until
// -duration or the -requests cap.
func (g *loadgen) closedLoop() {
	deadline := g.begin.Add(g.duration)
	var wg sync.WaitGroup
	for c := 0; c < g.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g.seed + int64(c)*7919))
			z := newZipf(rng, g.zipf, g.rows)
			for time.Now().Before(deadline) && g.admit() {
				g.generate(rng, z)
			}
		}(c)
	}
	wg.Wait()
}

// maxInFlight bounds the open-loop requests outstanding at once.
const maxInFlight = 4096

// pace is the one open-loop dispatcher: request i goes out at offset at(i)
// from the call, independent of completions, with at most maxInFlight in
// flight; at reports false when there is no request i. It returns once every
// request has finished.
func pace(at func(i int) (time.Duration, bool), send func(i int)) {
	begin := time.Now()
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		off, ok := at(i)
		if !ok {
			break
		}
		if d := time.Until(begin.Add(off)); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			send(i)
		}()
	}
	wg.Wait()
}

// openLoop offers generated requests at a fixed rate for dur: request i at
// i/offered seconds, up to the -requests cap. Request seeds continue from
// the requests already sent, so they stay unique through a capacity sweep.
func (g *loadgen) openLoop(offered float64, dur time.Duration) {
	interval := max(time.Duration(float64(time.Second)/offered), time.Microsecond)
	base := g.seed + int64(len(g.outcomes))
	pace(func(i int) (time.Duration, bool) {
		off := time.Duration(i) * interval
		return off, off < dur && g.admit()
	}, func(i int) {
		rng := rand.New(rand.NewSource(base + int64(i) + 1))
		g.generate(rng, newZipf(rng, g.zipf, g.rows))
	})
}

// capacity steps the offered rate up to -qps, measuring each step in
// isolation, then reports the saturation knee.
func (g *loadgen) capacity() {
	stepDur := g.duration / time.Duration(g.capSteps)
	var steps []capStep
	for s := 1; s <= g.capSteps; s++ {
		offered := g.qps * float64(s) / float64(g.capSteps)
		mark := len(g.outcomes)
		stepBegin := time.Now()
		g.openLoop(offered, stepDur)
		t := tallyOf(g.outcomes[mark:])
		steps = append(steps, capStep{offered, float64(t.ok) / time.Since(stepBegin).Seconds(), t})
	}
	reportCapacity(steps)
}

// replay re-offers a -record capture verbatim: the same arrival offsets,
// ops, indices, lanes and deadlines; every workload flag is ignored.
func (g *loadgen) replay() error {
	reqs, err := trace.LoadFile(g.replayPath)
	if err != nil {
		return err
	}
	logf("replaying %d requests from %s", len(reqs), g.replayPath)
	pace(func(i int) (time.Duration, bool) {
		if i == len(reqs) {
			return 0, false
		}
		return time.Duration(reqs[i].TUS) * time.Microsecond, true
	}, func(i int) { g.send(reqs[i]) })
	return nil
}

// capStep is one measured rung of a -capacity sweep.
type capStep struct {
	offered, achieved float64
	tally
}

// reportCapacity prints the sweep table (at least one step) and locates the
// capacity knee: the first step that sheds load or whose p99 blows past 3x
// the first step's — the offered rate a deployment should plan under.
func reportCapacity(steps []capStep) {
	logf("capacity sweep:")
	logf("  offered qps  achieved qps    ok   shed  other       p50       p99")
	for _, st := range steps {
		logf("  %11.0f  %12.0f  %4d  %5d  %5d  %8v  %8v",
			st.offered, st.achieved, st.ok, st.shed, st.deadline+st.other,
			st.pct(0.50).Round(time.Microsecond), st.pct(0.99).Round(time.Microsecond))
	}
	base := steps[0].pct(0.99)
	for _, st := range steps {
		if st.shed > 0 || (base > 0 && st.pct(0.99) > 3*base) {
			why := "sheds load"
			if st.shed == 0 {
				why = fmt.Sprintf("p99 %v > 3x baseline %v", st.pct(0.99).Round(time.Microsecond), base.Round(time.Microsecond))
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

// post issues one lookup and reports (status, degraded, retryAfterSeconds);
// status is -1 when the request never got a response. A 200 body is scanned
// for the degraded report; a 503's Retry-After header is parsed for the
// backoff hint (1 when absent or unparsable).
func post(client *http.Client, base string, payload []byte) (int, bool, int) {
	resp, err := client.Post(base+"/v1/lookup", "application/json", bytes.NewReader(payload))
	if err != nil {
		return -1, false, 0
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
		return resp.StatusCode, false, retryAfter
	}
	var wire struct {
		Degraded json.RawMessage `json:"degraded"`
	}
	degraded := json.NewDecoder(resp.Body).Decode(&wire) == nil && len(wire.Degraded) > 0
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, degraded, retryAfter
}

// tally counts outcomes by status and keeps the successes' latencies in
// ascending order.
type tally struct {
	ok, degraded, shed, deadline, other int
	retried, retries                    int // requests that retried, and their 503s
	lat                                 []time.Duration
}

func tallyOf(outcomes []outcome) tally {
	var t tally
	for _, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			t.ok++
			if o.degraded {
				t.degraded++
			}
			t.lat = append(t.lat, o.latency)
		case http.StatusServiceUnavailable:
			t.shed++
		case http.StatusGatewayTimeout:
			t.deadline++
		default:
			t.other++
		}
		if o.retries > 0 {
			t.retried++
			t.retries += o.retries
		}
	}
	slices.Sort(t.lat)
	return t
}

// pct is the p-th latency percentile of the successes (0 without any).
func (t tally) pct(p float64) time.Duration {
	if len(t.lat) == 0 {
		return 0
	}
	return t.lat[int(p*float64(len(t.lat)-1))]
}

func report(outcomes []outcome, elapsed time.Duration, qps float64) {
	t := tallyOf(outcomes)
	logf("sent %d in %v: %d ok, %d overload (503), %d deadline (504), %d other",
		len(outcomes), elapsed.Round(time.Millisecond), t.ok, t.shed, t.deadline, t.other)
	if t.degraded > 0 || t.retried > 0 {
		logf("robustness: %d degraded (200 with partial or failed-over results), %d requests retried %d 503s",
			t.degraded, t.retried, t.retries)
	}
	if qps > 0 {
		logf("offered %.0f qps, achieved %.0f qps", qps, float64(t.ok)/elapsed.Seconds())
	} else {
		logf("achieved %.0f requests/sec", float64(t.ok)/elapsed.Seconds())
	}
	if len(t.lat) > 0 {
		logf("latency p50 %v  p95 %v  p99 %v  max %v",
			t.pct(0.50).Round(time.Microsecond), t.pct(0.95).Round(time.Microsecond),
			t.pct(0.99).Round(time.Microsecond), t.lat[len(t.lat)-1].Round(time.Microsecond))
	}
	reportLanes(outcomes)
}

// reportLanes breaks the run down per QoS lane when a -mix was active: how
// much of each lane succeeded, how much was shed (503), and the lane's
// latency percentiles — the p99-under-overload view the QoS gate checks.
// Without -mix every request's lane is "" and nothing is printed.
func reportLanes(outcomes []outcome) {
	byLane := make(map[string][]outcome)
	for _, o := range outcomes {
		byLane[o.pri] = append(byLane[o.pri], o)
	}
	for _, lane := range []string{"high", "normal", "low"} {
		if len(byLane[lane]) == 0 {
			continue
		}
		t := tallyOf(byLane[lane])
		line := fmt.Sprintf("lane %s: %d ok, %d shed (503), %d other", lane, t.ok, t.shed, t.deadline+t.other)
		if len(t.lat) > 0 {
			line += fmt.Sprintf("  p50 %v  p99 %v",
				t.pct(0.50).Round(time.Microsecond), t.pct(0.99).Round(time.Microsecond))
		}
		logf("%s", line)
	}
}

// scrape pulls /metrics and prints the server-side coalescing summary.
func (g *loadgen) scrape() error {
	resp, err := g.client.Get(g.url + "/metrics")
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
	if g.dump {
		g.out.Write(raw)
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
	slices.SortFunc(members, func(a, b member) int { return a.id - b.id })
	byTraffic := func(a, b member) int { return cmp.Compare(a.v, b.v) }
	minM, maxM := slices.MinFunc(members, byTraffic), slices.MaxFunc(members, byTraffic)
	var parts []string
	for _, m := range members {
		parts = append(parts, fmt.Sprintf("%d=%.0f", m.id, m.v))
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
