package router

// The scatter → dispatch → reduce pipeline Fleet.Lookup and Federation.Lookup
// share. Both front-ends do the same job one level apart — partition a
// batch's indices by owning leaf (shard or member fleet), run the leaves'
// sub-lookups concurrently, reduce the partial pools through an rnet switch
// tree, finalise mean pooling over the surviving operand count, and move the
// root pool to the host — so each of those steps is defined once here. What
// stays in the front-ends is only what differs: the fleet's probe → breaker →
// replica-failover envelope, and the federation's mapping of member losses
// onto absent pool slots and global shard IDs.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fafnir/internal/cpu"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/header"
	"fafnir/internal/rnet"
	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// subref ties one leaf sub-query back to its batch query.
type subref struct {
	query   int // batch query index
	indices int // index count contributed by this leaf
}

// scatter is one batch partitioned by owning leaf.
type scatter struct {
	op      tensor.ReduceOp // the batch's pooling op
	queries int
	// subs[leaf] is the leaf's sub-batch (no queries when the leaf owns none
	// of the batch's indices); refs[leaf][i] names the batch query that
	// sub-query i belongs to.
	subs []embedding.Batch
	refs [][]subref
	// survivors[q] starts at query q's index count and drops by every index
	// lost to an unreachable leaf; mean pooling divides by it.
	survivors []int
}

// partition validates the batch and splits every query's indices by owning
// leaf, preserving index order within each sub-query. Every sub-query's
// index set is a run of one arena that holds the batch's indices, each
// query's grouped by leaf, so the split allocates no map and no set clone.
func partition(b embedding.Batch, n int, owner func(header.Index) int) (*scatter, error) {
	if len(b.Queries) == 0 {
		return nil, fmt.Errorf("router: empty batch")
	}
	if !b.Op.Valid() {
		return nil, fmt.Errorf("router: invalid reduce op %d", b.Op)
	}
	subOp := b.Op
	if subOp == tensor.OpMean {
		// Leaves accumulate raw sums; reduce finalizes the mean once, over
		// the surviving operand count, exactly as a single tree's root would.
		subOp = tensor.OpSum
	}
	sc := &scatter{
		op:        b.Op,
		queries:   len(b.Queries),
		subs:      make([]embedding.Batch, n),
		refs:      make([][]subref, n),
		survivors: make([]int, len(b.Queries)),
	}
	total := 0
	for _, q := range b.Queries {
		total += q.Indices.Len()
	}
	arena := make([]header.Index, total)
	count, end := make([]int, n), make([]int, n)
	at := 0
	for qi, q := range b.Queries {
		sc.survivors[qi] = q.Indices.Len()
		// Counting sort by leaf: end[leaf] advances through the leaf's run
		// of the query's span of the arena, stopping at the run's end.
		clear(count)
		for _, idx := range q.Indices {
			count[owner(idx)]++
		}
		for leaf, c := range count {
			end[leaf] = at
			at += c
		}
		for _, idx := range q.Indices {
			leaf := owner(idx)
			arena[end[leaf]] = idx
			end[leaf]++
		}
		for leaf, c := range count {
			if c == 0 {
				continue
			}
			// header.NewIndexSet's sort and dedup, in place.
			run := arena[end[leaf]-c : end[leaf]]
			slices.Sort(run)
			set := slices.Compact(run)
			sc.subs[leaf].Op = subOp
			sc.subs[leaf].Queries = append(sc.subs[leaf].Queries, embedding.Query{Indices: header.IndexSet(set[:len(set):len(set)])})
			sc.refs[leaf] = append(sc.refs[leaf], subref{query: qi, indices: c})
		}
	}
	return sc, nil
}

// pool spreads one leaf's sub-lookup outputs into the dense per-query pool
// the switch tree reduces; queries the leaf holds nothing for stay nil.
func (sc *scatter) pool(leaf int, outs []tensor.Vector) []tensor.Vector {
	pool := make([]tensor.Vector, sc.queries)
	for i, out := range outs {
		pool[sc.refs[leaf][i].query] = out
	}
	return pool
}

// attempt is one leaf sub-lookup's outcome.
type attempt struct {
	res *core.TimedResult
	err error
}

// dispatch runs lookup for every leaf in run on min(par, len(run)) workers
// (par 0 uses every core) that pull leaves in run order from a shared
// counter, the caller's goroutine among them, storing each outcome at
// attempts[leaf]. Leaves are fully independent (own engines, memories,
// injectors, clocks), so concurrent sub-lookups share no mutable state;
// callers settle the attempts in leaf order afterwards, so execution order
// never leaks into outputs, cycles, or health transitions.
func dispatch(attempts []attempt, run []int, par int, lookup func(leaf int) (*core.TimedResult, error)) {
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int32
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(run); i = int(next.Add(1)) - 1 {
			r, err := lookup(run[i])
			attempts[run[i]] = attempt{res: r, err: err}
		}
	}
	var wg sync.WaitGroup
	for range min(par, len(run)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// absorb accumulates one delivered sub-lookup's statistics into the batch
// result, and the degraded work the leaf absorbed internally (rank remaps,
// ECC retries) into the batch's report.
func absorb(res *core.TimedResult, deg *core.DegradedReport, r *core.TimedResult) {
	res.MemoryReads += r.MemoryReads
	res.BytesRead += r.BytesRead
	res.PETotals.Add(r.PETotals)
	res.HWBatches += r.HWBatches
	if r.MaxOccupancy > res.MaxOccupancy {
		res.MaxOccupancy = r.MaxOccupancy
	}
	res.MemCycles = sim.Max(res.MemCycles, r.MemCycles)
	if !r.Degraded.Empty() {
		deg.RemappedReads += r.Degraded.RemappedReads
		deg.RemappedQueries += r.Degraded.RemappedQueries
		deg.Retries += r.Degraded.Retries
		deg.RetryCycles += r.Degraded.RetryCycles
	}
}

// pipeline is the reduce half both front-ends embed: the switch tree over
// their leaves, the host link the root pool crosses, the simulated clock
// every batch advances, and the tracing and rnet-metric plumbing.
type pipeline struct {
	rtree *rnet.Tree
	dim   int
	host  cpu.Config
	mcfg  dram.Config
	// switchEvent names this tier's switch spans ("switch" inside a fleet,
	// "fleet-switch" across a federation) so the two tree levels stay
	// distinguishable on the shared PIDRnet timeline.
	switchEvent string
	clock       sim.Cycle
	tracer      telemetry.Tracer
	// spanCtx is the parent span ID for request-linked tracing: the serving
	// layer sets it to the flush span's ID before each Lookup (see
	// SetSpanContext) so leaf, failover, combine, and switch spans chain
	// under the request that paid for them.
	spanCtx uint64
	rm      *rnetMetrics
	// sink receives the rows a Lookup read, forwarded in leaf order after
	// the settle (see Fleet.AttachRowSink); nil when detached.
	sink core.RowSink
}

// vectorBytes is the stored and transferred size of one vector: the store's
// dimension in float32 elements.
func (p *pipeline) vectorBytes() int { return 4 * p.dim }

// Clock reports the simulated cycle clock, advanced by every batch.
func (p *pipeline) Clock() sim.Cycle { return p.clock }

// SetSpanContext installs the parent span ID that subsequent batch spans
// link under (0 detaches). Annotation only — timing is never perturbed.
func (p *pipeline) SetSpanContext(parent uint64) { p.spanCtx = parent }

// attachTracer installs t (nil detaches) and names the timelines: one
// PIDRouter lane per leaf plus any extra lanes, and one PIDRnet lane per
// switch level.
func (p *pipeline) attachTracer(t telemetry.Tracer, process, leaf string, leaves int, switchLane string, extra ...string) {
	p.tracer = t
	if t == nil {
		return
	}
	t.NameProcess(telemetry.PIDRouter, process)
	for i := 0; i < leaves; i++ {
		t.NameLane(telemetry.PIDRouter, i, fmt.Sprintf("%s %d", leaf, i))
	}
	for i, name := range extra {
		t.NameLane(telemetry.PIDRouter, leaves+i, name)
	}
	t.NameProcess(telemetry.PIDRnet, "rnet")
	for lvl := 1; lvl <= p.rtree.Depth(); lvl++ {
		t.NameLane(telemetry.PIDRnet, lvl, fmt.Sprintf("%s level %d", switchLane, lvl))
	}
}

// emitOn records one event on the simulated timeline (200 MHz PE clock),
// span-linked under parent; args precede the span identity.
func (p *pipeline) emitOn(cat string, pid int, name string, lane int, phase byte, ts, dur sim.Cycle, span, parent uint64, args ...telemetry.Arg) {
	if p.tracer == nil {
		return
	}
	ev := telemetry.Event{
		Name: name, Cat: cat, Phase: phase,
		PID: pid, TID: lane,
		TS: uint64(ts), ClockMHz: 200,
	}
	if phase == telemetry.PhaseSpan {
		ev.Dur = uint64(dur)
	}
	for _, a := range args {
		ev.AddArg(a)
	}
	ev.AddArg(telemetry.Arg{Key: telemetry.ArgSpan, Int: int64(span)})
	ev.AddArg(telemetry.Arg{Key: telemetry.ArgParent, Int: int64(parent)})
	p.tracer.Emit(ev)
}

// emit records one router event under the batch's request context; k keys
// the span identity among same-named siblings (the owning leaf).
func (p *pipeline) emit(name string, lane int, phase byte, ts, dur sim.Cycle, spanName string, k int, args ...telemetry.Arg) {
	p.emitOn("router", telemetry.PIDRouter, name, lane, phase, ts, dur,
		telemetry.SpanID(p.spanCtx, spanName, uint64(k)), p.spanCtx, args...)
}

// emitSwitchSpans records every switch firing on the rnet timeline, one lane
// per switch level, each span-linked under the batch's combine span. Spans
// arrive in node-ID order from the reduction (the deterministic post-hoc
// fold), so traced streams are bit-identical at every Parallelism.
func (p *pipeline) emitSwitchSpans(base sim.Cycle, r *rnet.Result, parent uint64) {
	if p.tracer == nil {
		return
	}
	for _, sp := range r.Spans {
		args := []telemetry.Arg{
			{Key: "node", Int: int64(sp.Node)},
			{Key: "combines", Int: int64(sp.Combines)},
		}
		if sp.Missing > 0 {
			args = append(args, telemetry.Arg{Key: "missing_children", Int: int64(sp.Missing)})
		}
		p.emitOn("rnet", telemetry.PIDRnet, p.switchEvent, sp.Level, telemetry.PhaseSpan,
			base+sp.Fire, sp.Done-sp.Fire,
			telemetry.SpanID(parent, p.switchEvent, uint64(sp.Node)), parent, args...)
	}
}

// reduce is the combine and transfer phases: the delivered leaf pools reduce
// through the switch tree — every partial takes O(log_radix leaves) link
// hops, a switch fires the moment its last live child lands, lost leaves
// are simply absent (nil) and cost nothing — and only the root pool crosses
// the host link. st carries the phases already spent (probe, and the backend
// and failover windows the leaves' Ready times contain); reduce fills in the
// rest of res: outputs, cycle totals and the stage split. It advances the
// clock past the batch.
func (p *pipeline) reduce(sc *scatter, leaves []*rnet.Partial, res *core.TimedResult, st core.StageCycles) (*rnet.Result, error) {
	rres, err := p.rtree.Reduce(sc.op, sc.queries, leaves)
	if err != nil {
		return nil, err
	}
	// Queries that lost everything (or arrived empty) produce zero vectors
	// like the engines; mean scales by the surviving operand count, the
	// single-tree root's exact finalize operation.
	res.Outputs = rres.Outputs
	rootQueries := 0
	for qi, v := range res.Outputs {
		if v == nil {
			res.Outputs[qi] = tensor.New(p.dim)
			continue
		}
		rootQueries++
		sc.op.FinalizeMean(v, sc.survivors[qi])
	}

	// The critical path already contains the slowest contributing leaf's
	// (or retry's) completion, so what it adds beyond those windows is the
	// combine stage. Leaf readiness bounds the critical path from below, so
	// the subtraction cannot underflow; the else arm is a defensive fold
	// that preserves the Sum() == TotalCycles invariant regardless.
	if windows := st.Backend + st.Failover; rres.CriticalPath >= windows {
		st.Combine = rres.CriticalPath - windows
	} else {
		st.Backend, st.Failover = rres.CriticalPath, 0
	}
	st.Transfer = p.host.DRAMToHost(p.mcfg.TransferCycles(rootQueries * p.vectorBytes()))
	res.Stages = st
	res.TotalCycles = st.Probe + rres.CriticalPath + st.Transfer
	res.TransferCycles = st.Transfer
	res.ComputeCycles = res.TotalCycles - res.MemCycles - st.Transfer

	p.rm.count(rres)
	p.emitSwitchSpans(p.clock+st.Probe, rres, telemetry.SpanID(p.spanCtx, "combine", 0))
	p.clock += res.TotalCycles
	return rres, nil
}
