package serve

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"fafnir/internal/cache"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/header"
	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// TraceAttacher is the optional backend capability behind ?debug=trace: a
// backend that can thread a telemetry tracer through its engines.
// *fafnir.System implements it. The coalescer only attaches and detaches
// from its single flusher goroutine, matching the backend's concurrency
// contract.
type TraceAttacher interface {
	AttachTracer(telemetry.Tracer)
}

// SpanContexter is the optional backend capability behind span parentage: a
// backend that can link the trace spans it emits under a serving-layer
// parent span ID. *fafnir.System, *router.Fleet, and *router.Federation
// implement it. The coalescer sets the context only from its single flusher
// goroutine, immediately before each Lookup, so a request's spans form one
// parent-linked chain from the HTTP enqueue down to the hardware batch.
type SpanContexter interface {
	SetSpanContext(parent uint64)
}

// MemoryStatsSource is the optional backend capability for row-buffer
// attribution: a backend exposing its memory system's cumulative counters by
// name ("dram.row_hits", "dram.row_misses", "dram.row_conflicts").
// *fafnir.System implements it. The coalescer delta-folds the counters into
// the registry after each flush, again only from the flusher goroutine.
type MemoryStatsSource interface {
	MemoryCounter(name string) uint64
}

// BatchStats describes the hardware batch that served a request. Requests
// coalesced into the same flush share one BatchStats value.
type BatchStats struct {
	// BatchQueries is the number of queries in the flushed batch.
	BatchQueries int
	// Requests is the number of concurrent requests coalesced into it.
	Requests int
	// MemoryReads is the number of DRAM vector reads the batch issued after
	// cross-request deduplication — and, when the hot-embedding cache is on,
	// after cached indices were stripped from the hardware batch.
	MemoryReads int
	// NaiveReads is what the batch would have read without deduplication
	// (the sum of all query sizes).
	NaiveReads int
	// TotalCycles is the simulated end-to-end batch latency (PE clock).
	TotalCycles sim.Cycle
	// BytesRead is the batch's DRAM traffic.
	BytesRead uint64
	// Reduces and Compares are the batch's PE action totals across the
	// reduction tree.
	Reduces  int
	Compares int
	// CacheHits and CacheMisses are the hot-embedding cache consultations
	// this batch made at build time; both zero when the cache is off.
	CacheHits   int
	CacheMisses int
	// Isolated marks a result recomputed alone after its shared batch
	// failed (see Coalescer.flush).
	Isolated bool
	// QueryOffset is this request's first query's index within the flushed
	// batch; the HTTP layer uses it to map the batch-level degraded report's
	// query indices back into request coordinates.
	QueryOffset int
	// RequestID is the coalescer-assigned ID of the request this stats copy
	// was delivered to: 1, 2, … in admission order, deterministic for a
	// deterministic arrival order. It is the span ID rooting the request's
	// parent-linked trace chain and the key the SLO flight recorder files
	// slow requests under.
	RequestID uint64
	// Breakdown is this request's per-stage latency attribution; nil only
	// when the request never reached a flush (admission or decode errors).
	Breakdown *Breakdown
	// Degraded carries the batch's degraded report when the backend absorbed
	// faults while serving it (rank remaps, shard failover, lost data); nil
	// for a clean batch. Requests coalesced into the same flush share one
	// report — degradation anywhere in the batch flags every rider, and the
	// per-request response filters the query-level detail by QueryOffset.
	Degraded *core.DegradedReport
}

// result is what the flusher delivers back to one waiting ticket.
type result struct {
	Response
	err error
}

// request is one admitted Request, queued until a flight carries it.
type request struct {
	Request
	ctx  context.Context
	id   uint64 // coalescer-assigned, in admission order; doubles as span ID
	enq  time.Time
	done chan result // buffered 1; the flusher never blocks on delivery
}

func (r *request) deliver(res result) {
	select {
	case r.done <- res:
	default:
	}
}

// deadlineSlack reports how much of the request's deadline remains at now;
// requests without a deadline report effectively infinite slack.
func (r *request) deadlineSlack(now time.Time) time.Duration {
	d, ok := r.ctx.Deadline()
	if !ok {
		return time.Duration(math.MaxInt64)
	}
	return d.Sub(now)
}

// sink tees serve-lifecycle events onto whichever tracers are live: the
// global serve timeline (Config.Tracer) and, on a flight carrying a
// ?debug=trace rider, that flight's echo collector. Serve events carry
// wall-clock nanoseconds since t0; ClockMHz 1000 maps nanoseconds onto the
// microsecond export timeline.
type sink struct {
	t0     time.Time
	global telemetry.Tracer
	echo   *telemetry.Trace
}

func (s sink) live() bool { return s.global != nil || s.echo != nil }

// emit records one event (instants pass a zero dur) on every live tracer.
func (s sink) emit(name string, tid int, phase byte, start time.Time, dur time.Duration, args ...telemetry.Arg) {
	ev := telemetry.Event{
		Name: name, Cat: "serve", Phase: phase,
		PID: telemetry.PIDServe, TID: tid,
		TS: uint64(start.Sub(s.t0)), Dur: uint64(dur), ClockMHz: 1000,
	}
	for _, a := range args {
		ev.AddArg(a)
	}
	if s.global != nil {
		s.global.Emit(ev)
	}
	if s.echo != nil {
		s.echo.Emit(ev)
	}
}

// nameServeLanes names the serve process and lanes on a tracer so the
// request/flush/cache spans render alike on the global timeline and on a
// per-batch echo.
func nameServeLanes(t telemetry.Tracer, cached bool) {
	t.NameProcess(telemetry.PIDServe, "serve")
	t.NameLane(telemetry.PIDServe, telemetry.TIDServeRequests, "requests")
	t.NameLane(telemetry.PIDServe, telemetry.TIDServeFlusher, "flusher")
	if cached {
		t.NameLane(telemetry.PIDServe, telemetry.TIDServeCache, "cache")
	}
}

// Coalescer accumulates concurrent lookup requests and flushes them through
// the backend as shared hardware batches. It is safe for concurrent use; the
// backend itself is only ever called from the single flusher goroutine, so a
// Backend need not be concurrency-safe (fafnir.System is not).
//
// Admission queues each request on its priority lane and sheds low-priority
// work first (above ShedLowWater x MaxQueued); a request with no priority
// rides the normal lane, and traffic that all rides one lane sees a plain
// bounded FIFO.
//
// Flush policy: a batch is cut from the highest non-empty lane — unless a
// lower lane's head request is about to miss its deadline (slack below
// Config.DeadlineSlack), which preempts and bounds starvation — as the
// longest lane prefix that shares one pooling op, capped at BatchCapacity
// queries and topped up with same-op work from the other lanes, so priority
// scheduling never reduces coalescing. It flushes immediately when it is
// full or when work it could not absorb waits behind it; otherwise the
// flusher lingers up to Config.Linger past the oldest cut request's enqueue
// time before flushing a partial batch.
//
// Every flushed batch is one flight through the stage list in flight.go.
// With Config.CacheBytes > 0 and a backend exposing RowSource, the flight
// consults a hot-embedding cache: cached indices are stripped from the
// hardware batch, the backend reads only the misses, and cached rows merge
// back into the pooled outputs bit-exactly (see docs/ARCHITECTURE.md §14
// for the determinism argument).
type Coalescer struct {
	cfg Config
	be  Backend
	m   *Metrics
	clk clock

	// sink is the global serve timeline (dead when Config.Tracer is nil, at
	// the cost of one check per event); flights copy it and add their echo.
	sink sink
	// labels are the pprof goroutine-label sets the flusher wears while a
	// stage runs, indexed by the stage's Breakdown column — built once here
	// so labelling costs no allocation per flush.
	labels [numStages]context.Context

	// attacher/spanner/memStats are the backend's optional capabilities,
	// resolved once at construction; all are exercised only from the flusher
	// goroutine. lastRow* hold the previously folded cumulative counters;
	// flushSeq numbers flights for span-ID derivation.
	attacher      TraceAttacher
	spanner       SpanContexter
	memStats      MemoryStatsSource
	flushSeq      uint64
	lastRowHits   uint64
	lastRowMisses uint64
	lastRowConfl  uint64

	// caches is the hot-embedding cache, one CLOCK ring per owner shard
	// (one ring total for an unsharded backend); nil when the cache is off.
	// rows/owner are the backend capabilities behind it. All cache state is
	// touched only by the flusher goroutine. lastCache* hold the previously
	// folded cumulative cache counters.
	caches         []*cache.Cache
	rows           RowSource
	owner          ShardOwner
	dim            int
	lastCacheEvict uint64
	lastCacheIns   uint64

	mu     sync.Mutex
	nextID uint64 // last request ID handed out; admitted requests only
	lanes  [numLanes][]*request
	queued int // queries across all lanes
	closed bool

	kick    chan struct{} // buffered 1: wakes the flusher
	drained chan struct{} // closed when the flusher exits
}

// NewCoalescer starts a coalescer over the backend. A nil Metrics allocates
// a private one (retrievable via Metrics()).
func NewCoalescer(cfg Config, be Backend, m *Metrics) (*Coalescer, error) {
	return newCoalescer(cfg, be, m, realClock{})
}

func newCoalescer(cfg Config, be Backend, m *Metrics, clk clock) (*Coalescer, error) {
	if be == nil {
		return nil, fmt.Errorf("serve: nil backend")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if m == nil {
		m = NewMetrics()
	}
	c := &Coalescer{
		cfg:     cfg,
		be:      be,
		m:       m,
		clk:     clk,
		sink:    sink{t0: clk.Now(), global: cfg.Tracer},
		kick:    make(chan struct{}, 1),
		drained: make(chan struct{}),
	}
	for i, name := range stageNames {
		c.labels[i] = pprof.WithLabels(context.Background(), pprof.Labels("stage", name))
	}
	c.attacher, _ = be.(TraceAttacher)
	c.spanner, _ = be.(SpanContexter)
	c.memStats, _ = be.(MemoryStatsSource)
	if cfg.CacheBytes > 0 {
		rows, ok := be.(RowSource)
		if !ok {
			return nil, fmt.Errorf("serve: Config.CacheBytes = %d but backend %T does not expose embedding rows (RowSource)", cfg.CacheBytes, be)
		}
		c.rows = rows
		c.dim = rows.Dim()
		nShards := 1
		if so, ok := be.(ShardOwner); ok {
			c.owner = so
			nShards = so.Shards()
		}
		c.caches = make([]*cache.Cache, nShards)
		for i := range c.caches {
			// Each shard's ring gets an even budget slice and its own seeded
			// hand position (splitmix64 increment keeps seeds well spread).
			cc, err := cache.New(cache.Config{
				Bytes: cfg.CacheBytes / int64(nShards),
				Dim:   c.dim,
				Seed:  cfg.CacheSeed + uint64(i)*0x9e3779b97f4a7c15,
			})
			if err != nil {
				return nil, fmt.Errorf("serve: cache shard %d: %w", i, err)
			}
			c.caches[i] = cc
		}
	}
	if c.sink.global != nil {
		nameServeLanes(c.sink.global, c.caches != nil)
	}
	go c.run()
	return c, nil
}

// Metrics returns the live metrics the coalescer reports into.
func (c *Coalescer) Metrics() *Metrics { return c.m }

// Config returns the coalescer's configuration with defaults resolved.
func (c *Coalescer) Config() Config { return c.cfg }

// Request is one lookup handed to Admit or Submit.
type Request struct {
	// Op is the pooling operation; Queries all travel in the same batch and
	// resolve together.
	Op      tensor.ReduceOp
	Queries []embedding.Query
	// Priority is the QoS lane. Mind the zero value: it is PriorityHigh (the
	// constants order by urgency), not the wire default PriorityNormal.
	Priority Priority
	// Trace asks for a trace echo: when the backend implements
	// TraceAttacher, Response.Trace is the Chrome trace-event JSON of the
	// flushed batch that served this request — including the engine and DRAM
	// events of any co-travelling requests coalesced into it.
	Trace bool
}

// Response is what a ticket resolves to for one Request.
type Response struct {
	Outputs []tensor.Vector
	Stats   BatchStats
	// Trace is nil unless Request.Trace was set and the backend can trace.
	Trace []byte
}

// Ticket is an admitted request's claim on its result.
type Ticket struct{ req *request }

// ID is the request's coalescer-assigned ID (see BatchStats.RequestID).
func (t Ticket) ID() uint64 { return t.req.id }

// Admit validates the request and queues it for the next shared batch
// without waiting for the result: when it returns, the request holds its
// place in its lane. It fails fast with ErrOverloaded when the admission
// queue is full and ErrDraining after Close. ctx bounds the whole request —
// its deadline drives lane escape, and a ticket whose ctx expires stops
// waiting.
func (c *Coalescer) Admit(ctx context.Context, r Request) (Ticket, error) {
	if len(r.Queries) == 0 {
		return Ticket{}, fmt.Errorf("serve: empty request")
	}
	if !r.Op.Valid() {
		return Ticket{}, fmt.Errorf("serve: invalid reduce op %d", r.Op)
	}
	if r.Priority < 0 || r.Priority >= numLanes {
		return Ticket{}, fmt.Errorf("serve: invalid priority %d", r.Priority)
	}
	req := &request{Request: r, ctx: ctx, enq: c.clk.Now(), done: make(chan result, 1)}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Ticket{}, ErrDraining
	}
	// Admission control: bounded queue. A request the queue could never
	// hold is still admitted when the queue is empty, so oversized requests
	// make progress instead of starving forever. Low-priority work sheds
	// early — at the low-water fraction of the bound — so overload consumes
	// best-effort traffic before it touches anything latency-critical.
	limit := c.cfg.MaxQueued
	if r.Priority == PriorityLow {
		limit = int(c.cfg.ShedLowWater * float64(c.cfg.MaxQueued))
	}
	if c.queued > 0 && c.queued+len(r.Queries) > limit {
		c.mu.Unlock()
		c.m.Shed.At(int(r.Priority)).Add(1)
		return Ticket{}, ErrOverloaded
	}
	c.nextID++
	req.id = c.nextID
	c.lanes[r.Priority] = append(c.lanes[r.Priority], req)
	c.queued += len(r.Queries)
	depth := c.queued
	c.mu.Unlock()

	if c.sink.live() {
		c.sink.emit("enqueue", telemetry.TIDServeRequests, telemetry.PhaseInstant, req.enq, 0,
			telemetry.Arg{Key: "req", Int: int64(req.id)},
			telemetry.Arg{Key: "queries", Int: int64(len(r.Queries))},
			telemetry.Arg{Key: "lane", Str: r.Priority.String()},
			telemetry.Arg{Key: "depth", Int: int64(depth)})
	}
	c.m.QueueDepth.Set(int64(depth))
	c.kickFlusher()
	return Ticket{req}, nil
}

// Wait blocks until the flusher delivers the ticket's result or the
// request's ctx expires. Either way Response.Stats.RequestID names the
// request, so a caller can file a timed-out or failed request under its ID.
func (t Ticket) Wait() (Response, error) {
	var res result
	select {
	case res = <-t.req.done:
	case <-t.req.ctx.Done():
		// The flusher may still compute this request's batch; delivery into
		// the buffered channel is dropped on the floor.
		res.err = t.req.ctx.Err()
	}
	res.Stats.RequestID = t.req.id
	return res.Response, res.err
}

// Submit is Admit followed by Wait.
func (c *Coalescer) Submit(ctx context.Context, r Request) (Response, error) {
	t, err := c.Admit(ctx, r)
	if err != nil {
		return Response{}, err
	}
	return t.Wait()
}

// Close stops admitting new requests, flushes everything still queued, and
// waits for the flusher to exit (or ctx to expire). It is idempotent.
func (c *Coalescer) Close(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.kickFlusher()
	select {
	case <-c.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Coalescer) kickFlusher() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// run is the flusher: the single goroutine that cuts batches off the lanes
// and flies them serially against the backend, waiting for a kick (or the
// linger timer) whenever no batch is ready.
func (c *Coalescer) run() {
	defer close(c.drained)
	var f flight // one value, reset per cut: the flusher flies one at a time
	for {
		riders, wait, done := c.next()
		switch {
		case riders != nil:
			f = flight{riders: riders}
			c.flush(&f)
		case done:
			return
		case wait > 0:
			fired, stop := c.clk.NewTimer(wait)
			select {
			case <-c.kick:
				stop()
			case <-fired:
			}
		default:
			<-c.kick
		}
	}
}

// next dequeues the next batch's riders. With nothing ready it returns nil
// riders and either done (closed and empty: the flusher exits), a positive
// linger wait, or zero (empty queue: wait for a kick).
func (c *Coalescer) next() (riders []*request, wait time.Duration, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for l := range c.lanes {
		total += len(c.lanes[l])
	}
	if total == 0 {
		return nil, 0, c.closed
	}
	now := c.clk.Now()
	cut, counts, nq := c.cut(c.pickLane(now))

	// Flush now when the batch is full, when work the cut could not absorb
	// waits behind it, or when draining; otherwise linger past the oldest
	// cut request's enqueue time.
	if nq < c.cfg.BatchCapacity && len(cut) == total && !c.closed {
		oldest := cut[0].enq
		for _, r := range cut[1:] {
			if r.enq.Before(oldest) {
				oldest = r.enq
			}
		}
		if wait := c.cfg.Linger - now.Sub(oldest); wait > 0 {
			return nil, wait, false
		}
	}
	for l, n := range counts {
		if n > 0 {
			c.lanes[l] = slices.Delete(c.lanes[l], 0, n)
		}
	}
	c.queued -= nq
	c.m.QueueDepth.Set(int64(c.queued))
	return cut, 0, false
}

// pickLane chooses the lane the next batch is cut from: the highest-priority
// non-empty lane, unless a lower lane's head request is about to miss its
// deadline (slack below Config.DeadlineSlack and tighter than the chosen
// head's), in which case the urgent lane preempts. Callers hold c.mu and
// have checked that some lane is non-empty.
func (c *Coalescer) pickLane(now time.Time) int {
	chosen := 0
	for len(c.lanes[chosen]) == 0 {
		chosen++
	}
	bestSlack := c.lanes[chosen][0].deadlineSlack(now)
	for l := chosen + 1; l < int(numLanes); l++ {
		if len(c.lanes[l]) == 0 {
			continue
		}
		if s := c.lanes[l][0].deadlineSlack(now); s < c.cfg.DeadlineSlack && s < bestSlack {
			chosen, bestSlack = l, s
		}
	}
	return chosen
}

// cut selects the candidate batch: requests sharing the scheduled lane's
// head op, at most BatchCapacity queries, drawn from that lane first and
// topped up from the others in priority order. A request is never split
// across batches; one request larger than the capacity forms its own batch
// (the engine splits it into hardware batches internally). It returns the
// riders, how many it took off the front of each lane, and their query
// count; nothing is dequeued. Callers hold c.mu.
func (c *Coalescer) cut(lane int) (riders []*request, counts [numLanes]int, nq int) {
	op := c.lanes[lane][0].Op
	take := func(l int) {
		for _, r := range c.lanes[l] {
			if nq >= c.cfg.BatchCapacity || r.Op != op || (len(riders) > 0 && nq+len(r.Queries) > c.cfg.BatchCapacity) {
				return
			}
			riders = append(riders, r)
			counts[l]++
			nq += len(r.Queries)
		}
	}
	take(lane)
	for l := 0; l < int(numLanes); l++ {
		if l != lane {
			take(l)
		}
	}
	return riders, counts, nq
}

// cachePlan is one flush's cache consultation: which indices were served
// from the cache, the per-query pooled cached contributions, and the
// stripped hardware batch covering only the misses.
type cachePlan struct {
	// partial holds, per original query, the cached rows pooled under the
	// batch op (nil when the query had no cache hits). Mean accumulates as
	// a sum; merge finalizes with the true operand count.
	partial []tensor.Vector
	// cachedN is the per-original-query count of indices served from cache.
	cachedN []int
	// backPos maps each original query to its position in the stripped
	// batch; -1 when every index was cached (or the query was empty) and
	// the hardware batch never sees it.
	backPos []int
	// origOf maps each stripped-batch query back to its original position,
	// for remapping degraded reports into caller coordinates.
	origOf []int
	// stripped is the hardware batch of cache misses. Mean batches are
	// rewritten to sum — the engine would otherwise finalize by the
	// stripped query's length, not the true operand count.
	stripped embedding.Batch
	// missed collects every miss across the batch for post-flush admission.
	missed []header.Index
	// hits/misses are the flush's consultation totals.
	hits, misses int
}

// shardOf reports the cache partition owning idx.
func (c *Coalescer) shardOf(idx header.Index) int {
	if c.owner == nil {
		return 0
	}
	return c.owner.OwnerOf(idx)
}

// consult is the cache-consult stage: it runs the batch through the
// hot-embedding cache, pooling cached rows host-side and building the
// stripped hardware batch of misses. The consult's hit/miss counts are
// published here, as the rings count them, whatever the flight's fate.
func (c *Coalescer) consult(f *flight) bool {
	b := f.batch
	nq := len(b.Queries)
	p := &cachePlan{
		partial: make([]tensor.Vector, nq),
		cachedN: make([]int, nq),
		backPos: make([]int, nq),
	}
	p.stripped.Op = b.Op
	if b.Op == tensor.OpMean {
		p.stripped.Op = tensor.OpSum
	}
	for qi, q := range b.Queries {
		p.backPos[qi] = -1
		var missed header.IndexSet
		for _, idx := range q.Indices {
			shard := c.shardOf(idx)
			v, ok := c.caches[shard].Get(cache.Key{Table: uint32(shard), Op: uint8(b.Op), Index: idx})
			if !ok {
				// Appending in iteration order preserves the sorted,
				// duplicate-free IndexSet invariant.
				missed = append(missed, idx)
				continue
			}
			if p.partial[qi] == nil {
				p.partial[qi] = v.Clone()
			} else {
				// Dimensions always agree (one store, one dim); Apply cannot
				// fail here.
				_ = b.Op.Apply(p.partial[qi], v)
			}
			p.cachedN[qi]++
		}
		p.hits += p.cachedN[qi]
		p.misses += len(missed)
		if len(missed) > 0 {
			p.backPos[qi] = len(p.stripped.Queries)
			p.origOf = append(p.origOf, qi)
			p.stripped.Queries = append(p.stripped.Queries, embedding.Query{Indices: missed})
			p.missed = append(p.missed, missed...)
		}
	}
	c.m.CacheHits.Add(uint64(p.hits))
	c.m.CacheMisses.Add(uint64(p.misses))
	f.plan = p
	return true
}

// mergeCached folds the cached partials back into the stripped batch's outputs,
// returning the output slice in original batch order. It also remaps the
// result's degraded report (if any) from stripped coordinates back to
// original batch coordinates, in place.
//
// Bit-exactness: store values are integer-valued float32, so sums are exact
// and order-independent; min/max are idempotent and order-independent by
// construction; mean is a sum finalized by one multiply with the same
// operand count the unstripped batch would use. The merged outputs are
// therefore bit-identical to a cache-off run (docs/ARCHITECTURE.md §14).
func (c *Coalescer) mergeCached(b embedding.Batch, p *cachePlan, res *core.TimedResult) []tensor.Vector {
	nq := len(b.Queries)
	lostCount := make([]int, nq)
	if res.Degraded != nil {
		for i, sq := range res.Degraded.LostQueries {
			oq := p.origOf[sq]
			n := 1
			if i < len(res.Degraded.LostIndexCounts) {
				n = res.Degraded.LostIndexCounts[i]
			}
			lostCount[oq] = n
			// origOf is strictly increasing, so the remap keeps LostQueries
			// sorted.
			res.Degraded.LostQueries[i] = oq
		}
	}
	outs := make([]tensor.Vector, nq)
	for qi, q := range b.Queries {
		total := q.Indices.Len()
		switch {
		case total == 0:
			outs[qi] = tensor.New(c.dim)
		case p.backPos[qi] < 0:
			// Fully cached: the hardware batch never saw this query.
			out := p.partial[qi]
			b.Op.FinalizeMean(out, total)
			outs[qi] = out
		default:
			out := res.Outputs[p.backPos[qi]]
			strippedLen := total - p.cachedN[qi]
			if lostCount[qi] >= strippedLen && p.partial[qi] != nil {
				// Every index the hardware batch was asked for was lost
				// downstream; its placeholder output is a zero vector, which
				// is not op-neutral for min/max. Serve the cached partial
				// alone.
				out = p.partial[qi]
			} else if p.partial[qi] != nil {
				_ = b.Op.Apply(out, p.partial[qi])
			}
			b.Op.FinalizeMean(out, total-lostCount[qi])
			outs[qi] = out
		}
	}
	return outs
}

// fill admits the flush's missed rows into the cache, deduplicated, after
// the batch completed — the rows just left DRAM, so the next batch that
// wants them strips them instead.
func (c *Coalescer) fill(op tensor.ReduceOp, missed []header.Index) {
	for _, idx := range header.NewIndexSet(missed...) {
		shard := c.shardOf(idx)
		v, err := c.rows.Row(idx)
		if err != nil {
			continue
		}
		// Dim is construction-checked; Put cannot fail here.
		_ = c.caches[shard].Put(cache.Key{Table: uint32(shard), Op: uint8(op), Index: idx}, v)
	}
}

// foldDelta folds a cumulative counter the flusher polls into the registry:
// it adds what cur gained over the last-seen value. Only the flusher calls
// it, so the last-seen values need no synchronization.
func foldDelta(into *telemetry.Counter, cur uint64, last *uint64) {
	if cur > *last {
		into.Add(cur - *last)
		*last = cur
	}
}

// foldCacheStats publishes what a fill changed: the rings' cumulative
// eviction/admission counters and the instantaneous resident footprint.
func (c *Coalescer) foldCacheStats() {
	var evict, ins uint64
	var resident int64
	for _, ca := range c.caches {
		st := ca.Stats()
		evict += st.Evictions
		ins += st.InsertedBytes
		resident += ca.Bytes()
	}
	foldDelta(c.m.CacheEvictions, evict, &c.lastCacheEvict)
	foldDelta(c.m.CacheBytes, ins, &c.lastCacheIns)
	c.m.CacheResident.Set(resident)
}

// foldMemoryStats publishes the backend's cumulative row-buffer counters, so
// the deltas attribute exactly the reads issued since the previous flight.
func (c *Coalescer) foldMemoryStats() {
	if c.memStats == nil {
		return
	}
	foldDelta(c.m.RowHits, c.memStats.MemoryCounter("dram.row_hits"), &c.lastRowHits)
	foldDelta(c.m.RowMisses, c.memStats.MemoryCounter("dram.row_misses"), &c.lastRowMisses)
	foldDelta(c.m.RowConflicts, c.memStats.MemoryCounter("dram.row_conflicts"), &c.lastRowConfl)
}
