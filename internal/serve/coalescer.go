package serve

import (
	"context"
	"fmt"
	"math"
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
	// failed (see the isolation retry in flush).
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

// result is what the flusher delivers back to one waiting Submit call.
type result struct {
	outputs []tensor.Vector
	stats   BatchStats
	trace   []byte // Chrome trace JSON of the serving batch (debug requests)
	err     error
}

// request is one queued Submit call.
type request struct {
	ctx     context.Context
	id      uint64 // coalescer-assigned, in admission order; doubles as span ID
	queries []embedding.Query
	op      tensor.ReduceOp
	pri     Priority
	enq     time.Time
	debug   bool        // caller asked for the batch's trace echo
	done    chan result // buffered 1; the flusher never blocks on delivery
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

// Coalescer accumulates concurrent lookup requests and flushes them through
// the backend as shared hardware batches. It is safe for concurrent use; the
// backend itself is only ever called from the single flusher goroutine, so a
// Backend need not be concurrency-safe (fafnir.System is not).
//
// Flush policy: a batch is cut as the longest queue prefix that shares one
// pooling op, capped at BatchCapacity queries. It flushes immediately when it
// is full or when requests with a different op wait behind it; otherwise the
// flusher lingers up to Config.Linger past the oldest request's enqueue time
// before flushing a partial batch.
//
// With Config.QoS enabled, the single queue becomes three priority lanes.
// Admission sheds low-priority work first (above ShedLowWater x MaxQueued),
// the flusher cuts batches from the highest non-empty lane, and a lower
// lane whose head request is about to miss its deadline (slack below
// Config.DeadlineSlack) preempts, bounding starvation. A cut batch tops up
// with same-op work from other lanes, so QoS never reduces coalescing.
//
// With Config.CacheBytes > 0 and a backend exposing RowSource, the flusher
// consults a hot-embedding cache at batch build time: cached indices are
// stripped from the hardware batch, the backend reads only the misses, and
// cached rows merge back into the pooled outputs bit-exactly (see
// docs/ARCHITECTURE.md §14 for the determinism argument).
type Coalescer struct {
	cfg Config
	be  Backend
	m   *Metrics

	// tracer receives request-lifecycle events (enqueue/flush/respond) on
	// the serve timeline when Config.Tracer is set; nil costs one check.
	// Serve events carry wall-clock nanoseconds since t0 (ClockMHz 1000).
	tracer telemetry.Tracer
	t0     time.Time

	// attacher/spanner/memStats are the backend's optional capabilities,
	// resolved once at construction; all are exercised only from the flusher
	// goroutine. lastRow* hold the previously folded cumulative counters;
	// flushSeq numbers flushes for span-ID derivation.
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
		tracer:  cfg.Tracer,
		t0:      time.Now(),
		kick:    make(chan struct{}, 1),
		drained: make(chan struct{}),
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
	if c.tracer != nil {
		c.tracer.NameProcess(telemetry.PIDServe, "serve")
		c.tracer.NameLane(telemetry.PIDServe, telemetry.TIDServeRequests, "requests")
		c.tracer.NameLane(telemetry.PIDServe, telemetry.TIDServeFlusher, "flusher")
		if c.caches != nil {
			c.tracer.NameLane(telemetry.PIDServe, telemetry.TIDServeCache, "cache")
		}
	}
	go c.run()
	return c, nil
}

// emit records one serve-lifecycle event at wall-clock nanoseconds since the
// coalescer started; ClockMHz 1000 maps nanoseconds onto the microsecond
// export timeline.
func (c *Coalescer) emit(name string, tid int, phase byte, start time.Time, dur time.Duration, args ...telemetry.Arg) {
	c.emitTo(c.tracer, name, tid, phase, start, dur, args...)
}

// emitTo is emit onto an explicit tracer — the global serve timeline or a
// per-batch ?debug=trace echo collector.
func (c *Coalescer) emitTo(t telemetry.Tracer, name string, tid int, phase byte, start time.Time, dur time.Duration, args ...telemetry.Arg) {
	ev := telemetry.Event{
		Name: name, Cat: "serve", Phase: phase,
		PID: telemetry.PIDServe, TID: tid,
		TS: uint64(start.Sub(c.t0)), ClockMHz: 1000,
	}
	if phase == telemetry.PhaseSpan {
		ev.Dur = uint64(dur)
	}
	for _, a := range args {
		ev.AddArg(a)
	}
	t.Emit(ev)
}

// nameServeLanes names the serve process and lanes on a per-batch trace echo
// so the request/flush spans it carries render like the global timeline's.
func nameServeLanes(t telemetry.Tracer) {
	t.NameProcess(telemetry.PIDServe, "serve")
	t.NameLane(telemetry.PIDServe, telemetry.TIDServeRequests, "requests")
	t.NameLane(telemetry.PIDServe, telemetry.TIDServeFlusher, "flusher")
}

// Metrics returns the live metrics the coalescer reports into.
func (c *Coalescer) Metrics() *Metrics { return c.m }

// Config returns the coalescer's configuration with defaults resolved.
func (c *Coalescer) Config() Config { return c.cfg }

// Request is one lookup handed to Submit.
type Request struct {
	// Op is the pooling operation; Queries all travel in the same batch and
	// resolve together.
	Op      tensor.ReduceOp
	Queries []embedding.Query
	// Priority is the QoS lane. Mind the zero value: it is PriorityHigh (the
	// constants order by urgency), not the wire default PriorityNormal. With
	// Config.QoS disabled the priority is ignored and every request travels
	// the normal lane.
	Priority Priority
	// Trace asks for a trace echo: when the backend implements
	// TraceAttacher, Response.Trace is the Chrome trace-event JSON of the
	// flushed batch that served this request — including the engine and DRAM
	// events of any co-travelling requests coalesced into it.
	Trace bool
}

// Response is what Submit returns for one Request.
type Response struct {
	Outputs []tensor.Vector
	Stats   BatchStats
	// Trace is nil unless Request.Trace was set and the backend can trace.
	Trace []byte
}

// Submit queues the request's queries for the next shared batch and blocks
// until the flusher delivers the result or ctx expires. It fails fast with
// ErrOverloaded when the admission queue is full and ErrDraining after Close.
func (c *Coalescer) Submit(ctx context.Context, r Request) (Response, error) {
	queries, pri := r.Queries, r.Priority
	if len(queries) == 0 {
		return Response{}, fmt.Errorf("serve: empty request")
	}
	if !r.Op.Valid() {
		return Response{}, fmt.Errorf("serve: invalid reduce op %d", r.Op)
	}
	if pri < 0 || pri >= numLanes {
		return Response{}, fmt.Errorf("serve: invalid priority %d", pri)
	}
	if !c.cfg.QoS {
		// QoS off: one lane, one queue — behavior-identical to the
		// pre-lane coalescer.
		pri = PriorityNormal
	}
	req := &request{ctx: ctx, queries: queries, op: r.Op, pri: pri, enq: time.Now(), debug: r.Trace, done: make(chan result, 1)}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Response{}, ErrDraining
	}
	// Admission control: bounded queue. A request the queue could never
	// hold is still admitted when the queue is empty, so oversized requests
	// make progress instead of starving forever. Low-priority work sheds
	// early — at the low-water fraction of the bound — so overload consumes
	// best-effort traffic before it touches anything latency-critical.
	limit := c.cfg.MaxQueued
	if c.cfg.QoS && pri == PriorityLow {
		limit = int(c.cfg.ShedLowWater * float64(c.cfg.MaxQueued))
	}
	if c.queued > 0 && c.queued+len(queries) > limit {
		c.mu.Unlock()
		c.m.Shed.At(int(pri)).Add(1)
		return Response{}, ErrOverloaded
	}
	c.nextID++
	req.id = c.nextID
	c.lanes[pri] = append(c.lanes[pri], req)
	c.queued += len(queries)
	depth := c.queued
	c.mu.Unlock()

	if c.tracer != nil {
		c.emit("enqueue", telemetry.TIDServeRequests, telemetry.PhaseInstant, req.enq, 0,
			telemetry.Arg{Key: "req", Int: int64(req.id)},
			telemetry.Arg{Key: "queries", Int: int64(len(queries))},
			telemetry.Arg{Key: "lane", Str: pri.String()},
			telemetry.Arg{Key: "depth", Int: int64(depth)})
	}
	c.m.QueueDepth.Set(int64(depth))
	c.kickFlusher()

	select {
	case res := <-req.done:
		return Response{Outputs: res.outputs, Stats: res.stats, Trace: res.trace}, res.err
	case <-ctx.Done():
		// The flusher may still compute this request's batch; delivery into
		// the buffered channel is dropped on the floor.
		return Response{}, ctx.Err()
	}
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

// pickLane chooses the lane the next batch is cut from: the highest-priority
// non-empty lane, unless a lower lane's head request is about to miss its
// deadline (slack below Config.DeadlineSlack and tighter than the chosen
// head's), in which case the urgent lane preempts. Callers hold c.mu.
func (c *Coalescer) pickLane(now time.Time) int {
	chosen := -1
	for l := 0; l < int(numLanes); l++ {
		if len(c.lanes[l]) > 0 {
			chosen = l
			break
		}
	}
	if chosen < 0 || !c.cfg.QoS {
		return chosen
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

// run is the flusher: the single goroutine that cuts batches off the lanes
// and executes them serially against the backend.
func (c *Coalescer) run() {
	defer close(c.drained)
	for {
		c.mu.Lock()
		total := 0
		for l := range c.lanes {
			total += len(c.lanes[l])
		}
		if total == 0 {
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			<-c.kick
			continue
		}

		// Cut the candidate batch: same op, at most BatchCapacity queries,
		// drawn from the scheduled lane first. A request is never split
		// across batches; one request larger than the capacity forms its own
		// batch (the engine splits it into hardware batches internally).
		// With QoS on, a partial batch tops up with same-op work from the
		// other lanes so priority scheduling never reduces coalescing.
		now := time.Now()
		lane := c.pickLane(now)
		op := c.lanes[lane][0].op
		var cut []*request
		var counts [numLanes]int
		nq := 0
		appendFrom := func(l int) {
			for _, r := range c.lanes[l][counts[l]:] {
				if r.op != op {
					break
				}
				if len(cut) > 0 && nq+len(r.queries) > c.cfg.BatchCapacity {
					break
				}
				cut = append(cut, r)
				counts[l]++
				nq += len(r.queries)
				if nq >= c.cfg.BatchCapacity {
					break
				}
			}
		}
		appendFrom(lane)
		if c.cfg.QoS && nq < c.cfg.BatchCapacity {
			for l := 0; l < int(numLanes); l++ {
				if l != lane && nq < c.cfg.BatchCapacity {
					appendFrom(l)
				}
			}
		}

		// Flush now when the batch is full, when work the cut could not
		// absorb waits behind it, or when draining; otherwise linger past
		// the oldest cut request's enqueue time.
		ready := nq >= c.cfg.BatchCapacity || len(cut) < total || c.closed
		if !ready {
			oldest := cut[0].enq
			for _, r := range cut[1:] {
				if r.enq.Before(oldest) {
					oldest = r.enq
				}
			}
			wait := c.cfg.Linger - time.Since(oldest)
			if wait > 0 {
				c.mu.Unlock()
				timer := time.NewTimer(wait)
				select {
				case <-c.kick:
					timer.Stop()
				case <-timer.C:
				}
				continue
			}
		}

		reqs := slices.Clone(cut)
		for l, n := range counts {
			if n > 0 {
				c.lanes[l] = slices.Delete(c.lanes[l], 0, n)
			}
		}
		c.queued -= nq
		depth := c.queued
		c.mu.Unlock()

		c.m.QueueDepth.Set(int64(depth))
		c.flush(op, reqs)
	}
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

// consult runs the batch through the hot-embedding cache, pooling cached
// rows host-side and building the stripped hardware batch of misses.
// Returns nil when the cache is off.
func (c *Coalescer) consult(b embedding.Batch) *cachePlan {
	if c.caches == nil {
		return nil
	}
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
	return p
}

// merge folds the cached partials back into the stripped batch's outputs,
// returning the output slice in original batch order. It also remaps the
// result's degraded report (if any) from stripped coordinates back to
// original batch coordinates, in place.
//
// Bit-exactness: store values are integer-valued float32, so sums are exact
// and order-independent; min/max are idempotent and order-independent by
// construction; mean is a sum finalized by one multiply with the same
// operand count the unstripped batch would use. The merged outputs are
// therefore bit-identical to a cache-off run (docs/ARCHITECTURE.md §14).
func (c *Coalescer) merge(b embedding.Batch, p *cachePlan, res *core.TimedResult) []tensor.Vector {
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

// foldCacheStats publishes one flush's cache work: consultation counts
// directly, eviction/admission counters delta-folded from the rings'
// cumulative stats, and the instantaneous resident footprint. Flusher
// goroutine only.
func (c *Coalescer) foldCacheStats(p *cachePlan) {
	c.m.CacheHits.Add(uint64(p.hits))
	c.m.CacheMisses.Add(uint64(p.misses))
	var evict, ins uint64
	var resident int64
	for _, ca := range c.caches {
		st := ca.Stats()
		evict += st.Evictions
		ins += st.InsertedBytes
		resident += ca.Bytes()
	}
	if evict > c.lastCacheEvict {
		c.m.CacheEvictions.Add(evict - c.lastCacheEvict)
		c.lastCacheEvict = evict
	}
	if ins > c.lastCacheIns {
		c.m.CacheBytes.Add(ins - c.lastCacheIns)
		c.lastCacheIns = ins
	}
	c.m.CacheResident.Set(resident)
}

// flush executes one shared batch and demultiplexes per-request results.
func (c *Coalescer) flush(op tensor.ReduceOp, reqs []*request) {
	// Requests whose deadline expired while queued are dropped before any
	// engine work is spent on them; their Submit already returned.
	live := make([]*request, 0, len(reqs))
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			c.m.ExpiredInQueue.Add(1)
			r.deliver(result{err: err})
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}

	queries := make([]embedding.Query, 0, c.cfg.BatchCapacity)
	wantTrace := false
	for _, r := range live {
		queries = append(queries, r.queries...)
		wantTrace = wantTrace || r.debug
	}
	b := embedding.Batch{Queries: queries, Op: op}
	buildStart := time.Now()
	plan := c.consult(b)

	// The flush span parents the backend's whole span tree. It is itself
	// parent-linked under a rider: the first debug request when one is
	// present — so the traced request's chain is unbroken — else the first
	// request in the cut. Every other rider's request span records the flush
	// it rode as a plain arg.
	parent := live[0]
	for _, r := range live {
		if r.debug {
			parent = r
			break
		}
	}
	c.flushSeq++
	flushID := telemetry.SpanID(parent.id, "flush", c.flushSeq)

	var batchTrace *telemetry.Trace
	var res *core.TimedResult
	var err error
	var beWall time.Duration
	flushStart := time.Now()
	cacheWall := flushStart.Sub(buildStart) // cache-consult side of the cache stage
	if plan == nil {
		cacheWall = 0
	}
	if plan != nil && len(plan.stripped.Queries) == 0 {
		// The whole batch was served from cache: no hardware work at all.
		res = &core.TimedResult{}
	} else {
		hw := b
		if plan != nil {
			hw = plan.stripped
		}
		// A debug request gets the engine + DRAM trace of its whole batch: a
		// fresh collector is attached around the lookup (flusher-only access,
		// honouring the backend's single-goroutine contract) and the rendered
		// JSON rides back on the result.
		if wantTrace && c.attacher != nil {
			batchTrace = telemetry.NewTrace()
			nameServeLanes(batchTrace)
			c.attacher.AttachTracer(batchTrace)
		}
		if c.spanner != nil {
			c.spanner.SetSpanContext(flushID)
		}
		beStart := time.Now()
		res, err = c.be.Lookup(hw)
		beWall = time.Since(beStart)
		if batchTrace != nil {
			c.attacher.AttachTracer(nil)
		}
	}
	flushArgs := []telemetry.Arg{
		{Key: "queries", Int: int64(len(queries))},
		{Key: "requests", Int: int64(len(live))},
		{Key: telemetry.ArgSpan, Int: int64(flushID)},
		{Key: telemetry.ArgParent, Int: int64(parent.id)},
	}
	flushDur := time.Since(flushStart)
	if c.tracer != nil {
		c.emit("flush", telemetry.TIDServeFlusher, telemetry.PhaseSpan, flushStart, flushDur, flushArgs...)
	}
	if batchTrace != nil {
		c.emitTo(batchTrace, "flush", telemetry.TIDServeFlusher, telemetry.PhaseSpan, flushStart, flushDur, flushArgs...)
	}
	if err != nil {
		c.isolate(op, live, err)
		return
	}
	outputs := res.Outputs
	if plan != nil {
		mergeStart := time.Now()
		outputs = c.merge(b, plan, res)
		c.fill(op, plan.missed)
		c.foldCacheStats(plan)
		mergeWall := time.Since(mergeStart)
		cacheWall += mergeWall
		if c.tracer != nil || batchTrace != nil {
			cacheArgs := []telemetry.Arg{
				{Key: "hits", Int: int64(plan.hits)},
				{Key: "misses", Int: int64(plan.misses)},
				{Key: "stripped_queries", Int: int64(len(plan.stripped.Queries))},
			}
			if c.tracer != nil {
				c.emit("cache", telemetry.TIDServeCache, telemetry.PhaseSpan, mergeStart, mergeWall, cacheArgs...)
			}
			if batchTrace != nil {
				c.emitTo(batchTrace, "cache", telemetry.TIDServeCache, telemetry.PhaseSpan, mergeStart, mergeWall, cacheArgs...)
			}
		}
	}
	stats := BatchStats{
		BatchQueries: len(queries),
		Requests:     len(live),
		MemoryReads:  res.MemoryReads,
		NaiveReads:   b.TotalAccesses(),
		TotalCycles:  res.TotalCycles,
		BytesRead:    res.BytesRead,
		Reduces:      res.PETotals.Reduces,
		Compares:     res.PETotals.Compares,
	}
	if plan != nil {
		stats.CacheHits = plan.hits
		stats.CacheMisses = plan.misses
	}
	if !res.Degraded.Empty() {
		stats.Degraded = res.Degraded
	}
	c.m.observeBatch(stats)
	c.foldMemoryStats()

	// The batch-level breakdown columns every rider shares: exact simulated
	// cycles split by the backend's Stages invariant, measured wall time for
	// the host-side stages. Coalesce absorbs the flush overhead the cache and
	// backend stages don't account for.
	bCyc, cCyc, tCyc := backendStages(res)
	hostWall := time.Since(buildStart)
	coalesceWall := hostWall - cacheWall - beWall
	if coalesceWall < 0 {
		coalesceWall = 0
	}
	base := Breakdown{
		Coalesce:    StageLatency{WallUS: usOf(coalesceWall)},
		Cache:       StageLatency{WallUS: usOf(cacheWall)},
		Backend:     StageLatency{Cycles: bCyc, WallUS: usOf(beWall)},
		Combine:     StageLatency{Cycles: cCyc, WallUS: simUS(cCyc)},
		Transfer:    StageLatency{Cycles: tCyc, WallUS: simUS(tCyc)},
		TotalCycles: res.TotalCycles,
	}

	// Request spans: one per rider, rooted (parent 0) and spanning enqueue to
	// delivery, with the flush they rode recorded as an arg. They are emitted
	// before the echo renders so a ?debug=trace response carries the full
	// serve → flush → backend chain.
	if c.tracer != nil || batchTrace != nil {
		now := time.Now()
		for _, r := range live {
			reqArgs := []telemetry.Arg{
				{Key: telemetry.ArgSpan, Int: int64(r.id)},
				{Key: telemetry.ArgParent, Int: 0},
				{Key: "flush", Int: int64(flushID)},
				{Key: "lane", Str: r.pri.String()},
				{Key: "queries", Int: int64(len(r.queries))},
			}
			if c.tracer != nil {
				c.emit("request", telemetry.TIDServeRequests, telemetry.PhaseSpan, r.enq, now.Sub(r.enq), reqArgs...)
			}
			if batchTrace != nil {
				c.emitTo(batchTrace, "request", telemetry.TIDServeRequests, telemetry.PhaseSpan, r.enq, now.Sub(r.enq), reqArgs...)
			}
		}
	}
	var traceJSON []byte
	if batchTrace != nil {
		traceJSON = batchTrace.ChromeJSON()
	}
	off := 0
	for _, r := range live {
		out := outputs[off : off+len(r.queries)]
		rr := result{outputs: out, stats: stats}
		rr.stats.QueryOffset = off
		rr.stats.RequestID = r.id
		off += len(r.queries)
		bd := base
		bd.RequestID = r.id
		bd.Queue = StageLatency{WallUS: usOf(buildStart.Sub(r.enq))}
		bd.TotalWallUS = usOf(time.Since(r.enq))
		rr.stats.Breakdown = &bd
		c.m.observeStages(&bd)
		if r.debug {
			rr.trace = traceJSON
		}
		r.deliver(rr)
		if c.tracer != nil {
			c.emit("respond", telemetry.TIDServeRequests, telemetry.PhaseInstant, time.Now(), 0,
				telemetry.Arg{Key: "req", Int: int64(r.id)},
				telemetry.Arg{Key: "queries", Int: int64(len(r.queries))})
		}
	}
}

// foldMemoryStats delta-folds the backend's cumulative row-buffer counters
// into the registry. Only the flusher goroutine calls it, so the last-seen
// values need no synchronization and the deltas attribute exactly the reads
// issued since the previous flush.
func (c *Coalescer) foldMemoryStats() {
	if c.memStats == nil {
		return
	}
	if h := c.memStats.MemoryCounter("dram.row_hits"); h > c.lastRowHits {
		c.m.RowHits.Add(h - c.lastRowHits)
		c.lastRowHits = h
	}
	if ms := c.memStats.MemoryCounter("dram.row_misses"); ms > c.lastRowMisses {
		c.m.RowMisses.Add(ms - c.lastRowMisses)
		c.lastRowMisses = ms
	}
	if cf := c.memStats.MemoryCounter("dram.row_conflicts"); cf > c.lastRowConfl {
		c.m.RowConflicts.Add(cf - c.lastRowConfl)
		c.lastRowConfl = cf
	}
}

// isolate handles a failed shared batch: each request is re-run alone, so a
// structured engine error (a dark rank, exhausted retries) reaches only the
// caller whose queries actually trip it, and innocent co-travellers still
// get their answers. Isolation retries bypass the cache entirely — the
// failure may implicate any part of the original batch, so each retry is
// the full, unstripped request.
func (c *Coalescer) isolate(op tensor.ReduceOp, reqs []*request, batchErr error) {
	if len(reqs) == 1 {
		reqs[0].deliver(result{err: batchErr})
		return
	}
	c.m.IsolationRetries.Add(1)
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			c.m.ExpiredInQueue.Add(1)
			r.deliver(result{err: err})
			continue
		}
		// Each isolation retry is its own flush for span purposes, parented
		// directly under the lone request it serves.
		if c.spanner != nil {
			c.flushSeq++
			c.spanner.SetSpanContext(telemetry.SpanID(r.id, "flush", c.flushSeq))
		}
		beStart := time.Now()
		res, err := c.be.Lookup(embedding.Batch{Queries: r.queries, Op: op})
		beWall := time.Since(beStart)
		if err != nil {
			r.deliver(result{err: err})
			continue
		}
		stats := BatchStats{
			BatchQueries: len(r.queries),
			Requests:     1,
			MemoryReads:  res.MemoryReads,
			NaiveReads:   embedding.Batch{Queries: r.queries}.TotalAccesses(),
			TotalCycles:  res.TotalCycles,
			BytesRead:    res.BytesRead,
			Reduces:      res.PETotals.Reduces,
			Compares:     res.PETotals.Compares,
			Isolated:     true,
			RequestID:    r.id,
		}
		if !res.Degraded.Empty() {
			stats.Degraded = res.Degraded
		}
		bCyc, cCyc, tCyc := backendStages(res)
		stats.Breakdown = &Breakdown{
			RequestID:   r.id,
			Queue:       StageLatency{WallUS: usOf(beStart.Sub(r.enq))},
			Backend:     StageLatency{Cycles: bCyc, WallUS: usOf(beWall)},
			Combine:     StageLatency{Cycles: cCyc, WallUS: simUS(cCyc)},
			Transfer:    StageLatency{Cycles: tCyc, WallUS: simUS(tCyc)},
			TotalCycles: res.TotalCycles,
			TotalWallUS: usOf(time.Since(r.enq)),
		}
		c.m.observeStages(stats.Breakdown)
		c.m.observeBatch(stats)
		c.foldMemoryStats()
		r.deliver(result{outputs: res.Outputs, stats: stats})
	}
}
