package serve

import (
	"context"
	"runtime/pprof"
	"time"

	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/telemetry"
)

// flight is one batch's trip through the stage list: the riders it carries,
// what each stage left behind for the next, and one timestamp per seam. All
// of it belongs to the flusher goroutine.
type flight struct {
	riders []*request // all share one pooling op
	// isolated marks a one-rider retry of a failed shared batch. It skips the
	// cache stages — the failure may implicate any part of the original
	// batch, so each retry is the full, unstripped request — and reports
	// BatchStats.Isolated.
	isolated bool

	batch embedding.Batch
	// parent is the rider the flush span is parent-linked under: the first
	// debug rider when one is present — so the traced request's chain is
	// unbroken — else the first rider. Every other rider's request span
	// records the flush it rode as a plain arg.
	parent  *request
	flushID uint64
	// sink is where the flight's spans go: the global serve timeline plus,
	// when a rider asked for ?debug=trace and the backend can trace, an echo
	// collector that is also attached around the backend call so the rider
	// gets the engine and DRAM events of its whole batch.
	sink sink

	plan  *cachePlan        // nil when the cache is off or skipped
	res   *core.TimedResult // Outputs are in original batch order once merge ran
	err   error             // the backend's error; ends the flight
	stats BatchStats

	// start is the stamp at the flight's first seam and now the one at the
	// seam before the running stage; wall accumulates, per Breakdown column,
	// the time between the seams of the stages charged to it.
	start, now time.Time
	wall       [numStages]time.Duration
	// spanArgs is set by a stage that wants its span emitted; the loop emits
	// it between the stage's two seams.
	spanArgs []telemetry.Arg
}

// stage is one step of a flight. The loop in fly — not the step — takes the
// timestamps, wears the pprof label and emits the span, so the Breakdown,
// fafnir_serve_stage_seconds, the trace and a CPU profile all slice a flight
// along the same seams (docs/ARCHITECTURE.md §11 has the table).
type stage struct {
	// col is the Breakdown column the step's wall time is charged to; it is
	// also the step's stage_seconds label and pprof "stage" label.
	col int
	// span and tid name the trace span emitted around the step when it sets
	// flight.spanArgs; steps with no span leave them empty.
	span string
	tid  int
	// run does the step's work and reports whether the flight goes on.
	run func(*Coalescer, *flight) bool
}

var stages = [...]stage{
	{col: stageQueue, run: (*Coalescer).expire},
	{col: stageQueue, run: (*Coalescer).build},
	{col: stageCache, run: (*Coalescer).consult},
	{col: stageBackend, span: "flush", tid: telemetry.TIDServeFlusher, run: (*Coalescer).backend},
	{col: stageCache, span: "cache", tid: telemetry.TIDServeCache, run: (*Coalescer).merge},
	{col: stageCoalesce, run: (*Coalescer).account},
	// deliver cuts the Breakdown at its own opening seam, so its wall time
	// is labelled but charged to no rider.
	{col: stageCoalesce, run: (*Coalescer).deliver},
}

// fly walks the flight through the stage list until a stage ends it, and
// returns the backend's error if that is what ended it.
func (c *Coalescer) fly(f *flight) error {
	f.sink = c.sink
	f.start = c.clk.Now()
	f.now = f.start
	cached := c.caches != nil && !f.isolated
	for i := range stages {
		st := &stages[i]
		if st.col == stageCache && !cached {
			continue // no seam either: a flight that bypasses the cache charges it nothing
		}
		pprof.SetGoroutineLabels(c.labels[st.col])
		more := st.run(c, f)
		next := c.clk.Now()
		f.wall[st.col] += next.Sub(f.now)
		if f.spanArgs != nil {
			f.sink.emit(st.span, st.tid, telemetry.PhaseSpan, f.now, next.Sub(f.now), f.spanArgs...)
			f.spanArgs = nil
		}
		f.now = next
		if !more {
			break
		}
	}
	pprof.SetGoroutineLabels(context.Background())
	return f.err
}

// flush flies one shared batch. When the backend fails it, each surviving
// rider is re-flown alone — the same stages, cache skipped — so a structured
// engine error (a dark rank, exhausted retries) reaches only the caller
// whose queries actually trip it, and innocent co-travellers still get their
// answers.
func (c *Coalescer) flush(f *flight) {
	err := c.fly(f)
	switch {
	case err == nil:
	case len(f.riders) == 1:
		f.riders[0].deliver(result{err: err})
	default:
		c.m.IsolationRetries.Add(1)
		for _, r := range f.riders {
			c.flush(&flight{riders: []*request{r}, isolated: true})
		}
	}
}

// expire drops riders whose context ended while they waited, before any
// engine work is spent on them; their Wait already returned. Only a rider
// that never reached the backend counts as expired in queue — an isolation
// retry's rider already flew once.
func (c *Coalescer) expire(f *flight) bool {
	live := f.riders[:0]
	for _, r := range f.riders {
		if err := r.ctx.Err(); err != nil {
			if !f.isolated {
				c.m.ExpiredInQueue.Add(1)
			}
			r.deliver(result{err: err})
			continue
		}
		live = append(live, r)
	}
	f.riders = live
	return len(live) > 0
}

// build assembles the riders' queries into one batch, picks the flush span's
// parent, and opens the echo collector when a rider asked for one.
func (c *Coalescer) build(f *flight) bool {
	queries := make([]embedding.Query, 0, c.cfg.BatchCapacity)
	f.parent = f.riders[0]
	for _, r := range f.riders {
		queries = append(queries, r.Queries...)
		if r.Trace && !f.parent.Trace {
			f.parent = r
		}
	}
	f.batch = embedding.Batch{Queries: queries, Op: f.parent.Op}
	c.flushSeq++
	f.flushID = telemetry.SpanID(f.parent.id, "flush", c.flushSeq)
	if f.parent.Trace && c.attacher != nil {
		f.sink.echo = telemetry.NewTrace()
		nameServeLanes(f.sink.echo, c.caches != nil)
	}
	return true
}

// backend runs the hardware batch — the cache misses when a plan stripped
// it, nothing at all when the whole batch was served from cache. The echo
// collector is attached around the lookup only (flusher-only access,
// honouring the backend's single-goroutine contract), and the flush span ID
// is handed down so the backend's whole span tree parents under it.
func (c *Coalescer) backend(f *flight) bool {
	hw := f.batch
	if f.plan != nil {
		hw = f.plan.stripped
	}
	if f.plan != nil && len(hw.Queries) == 0 {
		f.res = &core.TimedResult{}
	} else {
		if f.sink.echo != nil {
			c.attacher.AttachTracer(f.sink.echo)
		}
		if c.spanner != nil {
			c.spanner.SetSpanContext(f.flushID)
		}
		f.res, f.err = c.be.Lookup(hw)
		if f.sink.echo != nil {
			c.attacher.AttachTracer(nil)
		}
	}
	if f.sink.live() {
		f.spanArgs = []telemetry.Arg{
			{Key: "queries", Int: int64(len(f.batch.Queries))},
			{Key: "requests", Int: int64(len(f.riders))},
			{Key: telemetry.ArgSpan, Int: int64(f.flushID)},
			{Key: telemetry.ArgParent, Int: int64(f.parent.id)},
		}
	}
	return f.err == nil
}

// merge puts the outputs back in original batch order by merging the cached
// partials in, then admits the rows the backend just read to the cache.
func (c *Coalescer) merge(f *flight) bool {
	f.res.Outputs = c.mergeCached(f.batch, f.plan, f.res)
	c.fill(f.batch.Op, f.plan.missed)
	c.foldCacheStats()
	if f.sink.live() {
		f.spanArgs = []telemetry.Arg{
			{Key: "hits", Int: int64(f.plan.hits)},
			{Key: "misses", Int: int64(f.plan.misses)},
			{Key: "stripped_queries", Int: int64(len(f.plan.stripped.Queries))},
		}
	}
	return true
}

// account settles the batch-level statistics every rider shares and folds
// them, and the backend's memory counters, into the registry.
func (c *Coalescer) account(f *flight) bool {
	f.stats = BatchStats{
		BatchQueries: len(f.batch.Queries),
		Requests:     len(f.riders),
		MemoryReads:  f.res.MemoryReads,
		NaiveReads:   f.batch.TotalAccesses(),
		TotalCycles:  f.res.TotalCycles,
		BytesRead:    f.res.BytesRead,
		Reduces:      f.res.PETotals.Reduces,
		Compares:     f.res.PETotals.Compares,
		Isolated:     f.isolated,
	}
	if f.plan != nil {
		f.stats.CacheHits = f.plan.hits
		f.stats.CacheMisses = f.plan.misses
	}
	if !f.res.Degraded.Empty() {
		f.stats.Degraded = f.res.Degraded
	}
	c.m.observeBatch(f.stats)
	c.foldMemoryStats()
	return true
}

// breakdown attributes one rider's latency from the flight's stamps: its
// own wait plus the stages charged to the queue column, measured wall time
// per column for the other host-side stages, and exact simulated cycles
// split by the backend's Stages invariant. deliver calls it at its opening
// seam, which is where the attribution is cut.
func (f *flight) breakdown(r *request) *Breakdown {
	bCyc, cCyc, tCyc := backendStages(f.res)
	return &Breakdown{
		RequestID:   r.id,
		Queue:       StageLatency{WallUS: usOf(f.start.Sub(r.enq) + f.wall[stageQueue])},
		Coalesce:    StageLatency{WallUS: usOf(f.wall[stageCoalesce])},
		Cache:       StageLatency{WallUS: usOf(f.wall[stageCache])},
		Backend:     StageLatency{Cycles: bCyc, WallUS: usOf(f.wall[stageBackend])},
		Combine:     StageLatency{Cycles: cCyc, WallUS: simUS(cCyc)},
		Transfer:    StageLatency{Cycles: tCyc, WallUS: simUS(tCyc)},
		TotalCycles: f.res.TotalCycles,
		TotalWallUS: usOf(f.now.Sub(r.enq)),
	}
}

// deliver demultiplexes the batch: one request span per rider — rooted
// (parent 0), spanning enqueue to delivery, with the flush it rode recorded
// as an arg, and emitted before the echo renders so a ?debug=trace response
// carries the full serve → flush → backend chain — then each rider's slice
// of the outputs with its own stats copy and Breakdown.
func (c *Coalescer) deliver(f *flight) bool {
	if f.sink.live() {
		for _, r := range f.riders {
			f.sink.emit("request", telemetry.TIDServeRequests, telemetry.PhaseSpan, r.enq, f.now.Sub(r.enq),
				telemetry.Arg{Key: telemetry.ArgSpan, Int: int64(r.id)},
				telemetry.Arg{Key: telemetry.ArgParent, Int: 0},
				telemetry.Arg{Key: "flush", Int: int64(f.flushID)},
				telemetry.Arg{Key: "lane", Str: r.Priority.String()},
				telemetry.Arg{Key: "queries", Int: int64(len(r.Queries))})
		}
	}
	var echo []byte
	if f.sink.echo != nil {
		echo = f.sink.echo.ChromeJSON()
	}
	off := 0
	for _, r := range f.riders {
		var rr result
		rr.Outputs, rr.Stats = f.res.Outputs[off:off+len(r.Queries)], f.stats
		rr.Stats.QueryOffset = off
		off += len(r.Queries)
		rr.Stats.Breakdown = f.breakdown(r)
		c.m.observeStages(rr.Stats.Breakdown)
		if r.Trace {
			rr.Trace = echo
		}
		r.deliver(rr)
		if c.sink.live() {
			c.sink.emit("respond", telemetry.TIDServeRequests, telemetry.PhaseInstant, c.clk.Now(), 0,
				telemetry.Arg{Key: "req", Int: int64(r.id)},
				telemetry.Arg{Key: "queries", Int: int64(len(r.Queries))})
		}
	}
	return true
}
