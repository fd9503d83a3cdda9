package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fafnir"
	"fafnir/internal/serve"
)

// The serving workloads run the real request path in this process: client
// -> HTTP -> coalescer -> cache -> backend, where the backend is the paper's
// default system or a 2x4 federation. Load is closed loop: each client keeps
// one keep-alive connection and sends its next request when the previous
// reply has arrived.

const (
	requestQueries = 8       // queries per request
	cacheBytes     = 8 << 20 // the hot-embedding cache budget of serve_hot and serve_cold
	fullCheckEvery = 16      // timed rounds decode and oracle-compare one reply in this many
)

// numClients is min(nproc, 4): no more callers than cores, so the generator
// does not queue behind itself.
func numClients() int { return min(runtime.NumCPU(), 4) }

type serveKind int

const (
	serveHot serveKind = iota
	serveCold
	serveFederation
)

var serveHotW = workload{
	name:  "serve_hot",
	op:    "one POST /v1/lookup of 8 queries x 16 indices, Zipf s=1.3 over the first 2^17 rows, against a single-system server with an 8 MiB cache",
	item:  "query",
	why:   "Repeated hot rows: serve (HTTP, JSON, coalescer) and cache do most of the work, hardware batches arrive stripped and the tree engine does little.",
	setup: func(seed int64, quick bool) (instance, error) { return setupServe(serveHot, seed, quick) },
}

var serveColdW = workload{
	name:  "serve_cold",
	op:    "one POST /v1/lookup of 8 queries x 16 indices, uniform over all 4 Mi rows, against the same server configuration as serve_hot",
	item:  "query",
	why:   "Same layers used the other way: every cache consult misses and every fill evicts, so the cache is pure tax and the engine does a full 128-read batch per request.",
	setup: func(seed int64, quick bool) (instance, error) { return setupServe(serveCold, seed, quick) },
}

var serveFederationW = workload{
	name:  "serve_federation",
	op:    "one POST /v1/lookup of 8 queries x 16 indices, Zipf s=1.3, against a 2-fleet x 4-shard federation (radix-2 rnet at both levels), cache off",
	item:  "query",
	why:   "The only workload where router (Federation.Lookup and Fleet.Lookup) and rnet (both tree levels) run; a router change must show here and not in serve_hot.",
	setup: func(seed int64, quick bool) (instance, error) { return setupServe(serveFederation, seed, quick) },
}

// lookupSpans is the switch the timing shim and the handler middleware
// share: a nil tracer means spans are off.
type lookupSpans struct {
	tr atomic.Pointer[tracer]
	// parent is the handler span most recently entered. In the serial pass
	// one request is in flight, so it is the request the flush serves; in a
	// concurrent round it is one of the requests riding the flush.
	parent atomic.Uint64
}

func (ls *lookupSpans) timed(lookup func(fafnir.Batch) (*fafnir.LookupResult, error), b fafnir.Batch) (*fafnir.LookupResult, error) {
	tr := ls.tr.Load()
	if tr == nil {
		return lookup(b)
	}
	t0 := time.Now()
	res, err := lookup(b)
	tr.span("backend.lookup", laneBack, t0, time.Since(t0), tr.nextID(), ls.parent.Load())
	return res, err
}

// systemBackend and federationBackend are the timing shims handed to
// serve.New. Embedding the backend promotes its whole method set, so every
// optional capability the serving layer probes for (RowSource, ShardOwner,
// MetricsRegistrar, TraceAttacher, SpanContexter, MemoryStatsSource,
// TopologyDescriber) is present exactly when the backend has it; only Lookup
// is wrapped.
type systemBackend struct {
	*fafnir.System
	spans *lookupSpans
}

func (b systemBackend) Lookup(batch fafnir.Batch) (*fafnir.LookupResult, error) {
	return b.spans.timed(b.System.Lookup, batch)
}

type federationBackend struct {
	*fafnir.Federation
	spans *lookupSpans
}

func (b federationBackend) Lookup(batch fafnir.Batch) (*fafnir.LookupResult, error) {
	return b.spans.timed(b.Federation.Lookup, batch)
}

// federationConfig is the serve_federation topology.
func federationConfig() fafnir.FederationConfig {
	return fafnir.FederationConfig{
		Fleets: 2,
		Fleet:  fafnir.FleetConfig{Shards: 4, Rnet: fafnir.RnetConfig{Radix: 2}},
	}
}

// stack is one server over one backend, listening on a loopback port.
type stack struct {
	srv    *serve.Server
	ts     *httptest.Server
	spans  *lookupSpans
	golden func(fafnir.Batch) ([]fafnir.Vector, error)
	rows   uint64
}

func newStack(kind serveKind) (*stack, error) {
	st := &stack{spans: &lookupSpans{}}
	var backend serve.System
	cfg := serve.Config{}
	if kind == serveFederation {
		fd, err := fafnir.NewFederation(federationConfig())
		if err != nil {
			return nil, err
		}
		backend = federationBackend{fd, st.spans}
		cfg.BatchCapacity = fd.Config().Fleet.BatchCapacity
		store := fd.Fleet(0).Store()
		st.golden = func(b fafnir.Batch) ([]fafnir.Vector, error) { return b.Golden(store) }
		st.rows = fd.TotalRows()
	} else {
		sys, err := fafnir.NewSystem(fafnir.SystemConfig{})
		if err != nil {
			return nil, err
		}
		backend = systemBackend{sys, st.spans}
		cfg.BatchCapacity = sys.Config().BatchCapacity
		cfg.CacheBytes = cacheBytes
		st.golden = sys.Golden
		st.rows = sys.TotalRows()
	}
	srv, err := serve.New(backend, cfg)
	if err != nil {
		return nil, err
	}
	st.srv = srv
	st.ts = httptest.NewServer(st.middleware(srv.Handler()))
	return st, nil
}

// middleware is the http.handler span around the server's own handler.
func (st *stack) middleware(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := st.spans.tr.Load()
		if tr == nil || r.URL.Path != "/v1/lookup" {
			inner.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Span"), 10, 64)
		client, _ := strconv.Atoi(r.Header.Get("X-Bench-Client"))
		id := tr.nextID()
		st.spans.parent.Store(id)
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		tr.span("http.handler", laneHTTP+client, t0, time.Since(t0), id, parent)
	})
}

// close stops the listener, then drains the coalescer, and waits for both.
func (st *stack) close() error {
	st.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return st.srv.Drain(ctx)
}

// scrape reads the server's /metrics page into name{labels} -> value.
func (st *stack) scrape(hc *http.Client) (metrics, error) {
	resp, err := hc.Get(st.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(bufio.NewScanner(resp.Body))
}

func parseMetrics(sc *bufio.Scanner) (metrics, error) {
	m := metrics{}
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:cut]] = v
	}
	return m, sc.Err()
}

// sumPrefix adds up every series of one labelled family.
func (m metrics) sumPrefix(prefix string) float64 {
	sum := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// request is one pre-encoded request and its oracle reply.
type request struct {
	body []byte
	want []fafnir.Vector
}

// lookupBody is the wire form of a lookup, and lookupReply the part of the
// reply the checks read.
type lookupBody struct {
	Queries [][]uint64 `json:"queries"`
	Op      string     `json:"op"`
}

type lookupReply struct {
	Outputs  []fafnir.Vector  `json:"outputs"`
	Degraded *json.RawMessage `json:"degraded"`
}

func encodeRequest(qs [][]uint32) ([]byte, error) {
	body := lookupBody{Op: "sum", Queries: make([][]uint64, len(qs))}
	for i, q := range qs {
		body.Queries[i] = make([]uint64, len(q))
		for j, x := range q {
			body.Queries[i][j] = uint64(x)
		}
	}
	return json.Marshal(body)
}

// client is one closed-loop caller with its own connection and its own
// request stream (seeded seed + client).
type client struct {
	hc   *http.Client
	reqs []request
	raw  [][][]uint32
	buf  bytes.Buffer
}

type serveInst struct {
	info    inputInfo
	kind    serveKind
	st      *stack
	callers []*client
	serialN [2]int // warm-up and measured requests of the serial pass
	// replies keeps a few raw reply bodies for the client decode drill.
	replies [][]byte
}

func setupServe(kind serveKind, seed int64, quick bool) (_ instance, err error) {
	st, err := newStack(kind)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = st.close() // set-up failed: the first error is the one reported
		}
	}()
	pool, serial := 2048, [2]int{500, 1500}
	if quick {
		pool, serial = 48, [2]int{16, 48}
	}
	s := &serveInst{kind: kind, st: st, serialN: serial}
	d := newDigest()
	for c := 0; c < numClients(); c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)))
		draw := zipfDraw(rng)
		if kind == serveCold {
			draw = uniformDraw(rng, st.rows)
		}
		// One connection per client: the transport may not open a second.
		cl := &client{hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
		for r := 0; r < pool; r++ {
			qs := drawQueries(draw, requestQueries, d)
			body, err := encodeRequest(qs)
			if err != nil {
				return nil, err
			}
			want, err := st.golden(sumBatch(qs))
			if err != nil {
				return nil, err
			}
			cl.reqs = append(cl.reqs, request{body: body, want: want})
			cl.raw = append(cl.raw, qs)
		}
		s.callers = append(s.callers, cl)
	}
	s.info = inputInfo{SHA256: d.sum(), Seed: seed, Clients: numClients(),
		Counts: map[string]int{"requests_per_client": pool, "queries_per_request": requestQueries,
			"indices_per_query": querySize, "serial_pass_requests": serial[1]}}
	return s, nil
}

func (s *serveInst) inputs() inputInfo { return s.info }
func (s *serveInst) clients() int      { return len(s.callers) }
func (s *serveInst) period() int       { return 1 }

func (s *serveInst) close() error {
	for _, cl := range s.callers {
		cl.hc.CloseIdleConnections()
	}
	return s.st.close()
}

// send posts request k of cl to st and checks the reply. The timed span is
// client send to last body byte; every check runs after it.
func (cl *client) send(st *stack, c, k int, full bool, tr *tracer) (time.Duration, error) {
	rq := &cl.reqs[k%len(cl.reqs)]
	hr, err := http.NewRequest(http.MethodPost, st.ts.URL+"/v1/lookup", bytes.NewReader(rq.body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	id := uint64(0)
	if tr != nil {
		id = tr.nextID()
		hr.Header.Set("X-Bench-Span", strconv.FormatUint(id, 10))
		hr.Header.Set("X-Bench-Client", strconv.Itoa(c))
	}
	cl.buf.Reset()
	t0 := time.Now()
	resp, err := cl.hc.Do(hr)
	if err != nil {
		return 0, err
	}
	_, err = cl.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	dur := time.Since(t0)
	if err != nil {
		return 0, err
	}
	tr.span("client.request", laneClient+c, t0, dur, id, 0)

	body := cl.buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return 0, checkf("request %d: status %d: %s", k, resp.StatusCode, bytes.TrimSpace(body))
	}
	// Shape, without decoding: the outputs array leads the reply and holds
	// one vector per query.
	if !bytes.HasPrefix(body, []byte(`{"outputs":[[`)) || bytes.Count(body, []byte("],[")) != len(rq.want)-1 {
		return 0, checkf("request %d: reply does not hold %d output vectors", k, len(rq.want))
	}
	if !full {
		return dur, nil
	}
	var reply lookupReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return 0, checkf("request %d: reply undecodable: %v", k, err)
	}
	if reply.Degraded != nil {
		return 0, checkf("request %d: degraded reply on a fault-free run", k)
	}
	return dur, sameVectors("request "+strconv.Itoa(k), reply.Outputs, rq.want)
}

func (s *serveInst) run(c, i int, full bool, tr *tracer) (time.Duration, float64, error) {
	// The server side of the stack records spans exactly when the clients do.
	if s.st.spans.tr.Load() != tr {
		s.st.spans.tr.Store(tr)
	}
	dur, err := s.callers[c].send(s.st, c, i, full || i%fullCheckEvery == 0, tr)
	return dur, requestQueries, err
}

// simulated is the serial pass: a fresh server and backend, one client, a
// fixed request list, so each flush is one request and every counter is the
// same on every run. Counters are read as the difference of two /metrics
// scrapes around the measured requests; the warm-up before them fills the
// cache, so the statistics are those of a warmed server.
func (s *serveInst) simulated(tr *tracer) (_ *simStats, err error) {
	st, err := newStack(s.kind)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := st.close(); err == nil {
			err = cerr
		}
	}()
	if tr != nil {
		// The per-request means below are the serial pass's alone; the
		// concurrent rounds' spans stay in the exported trace.
		for _, name := range []string{"client.request", "http.handler", "backend.lookup"} {
			tr.take(name)
		}
	}
	cl := s.callers[0]
	out := &simStats{}
	send := func(from, n int, tr *tracer) {
		for k := from; k < from+n; k++ {
			_, err := cl.send(st, 0, k, true, tr)
			out.ops++
			if err != nil {
				out.failed++
				if len(out.errs) < 5 {
					out.errs = append(out.errs, err.Error())
				}
			}
			if tr != nil && len(s.replies) < 256 {
				s.replies = append(s.replies, append([]byte(nil), cl.buf.Bytes()...))
			}
		}
	}
	send(0, s.serialN[0], nil)
	before, err := st.scrape(cl.hc)
	if err != nil {
		return nil, err
	}
	st.spans.tr.Store(tr)
	send(s.serialN[0], s.serialN[1], tr)
	st.spans.tr.Store(nil)
	after, err := st.scrape(cl.hc)
	if err != nil {
		return nil, err
	}
	delta := metrics{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	out.items = delta["fafnir_serve_queries_total"]
	out.cycles = delta["fafnir_serve_sim_cycles_total"]
	out.reads = delta["fafnir_serve_dram_reads_total"]
	if tr != nil {
		// The timing shim and the server's own backend stage time the same
		// calls, the stage from just outside the shim. On a busy machine a
		// pause between the two clocks opens the gap, so a disagreement is
		// noted in the record, not fatal: it says how far to trust the
		// serve.*_us_per_req rows of this run.
		shim, stage := sum(tr.take("backend.lookup")), delta[`fafnir_serve_stage_seconds_sum{stage="backend"}`]*1e6
		if shim < 0.9*stage || shim > 1.1*stage+float64(s.serialN[1]) {
			out.notes = append(out.notes, fmt.Sprintf("backend.lookup spans total %.0f us, the server's backend stage %.0f us: more than 10 %% apart", shim, stage))
		}
		out.layer = serialLayerMetrics(tr, float64(s.serialN[1]), delta, after)
	}
	return out, nil
}
