package router

// The scatter → dispatch → reduce steps of a tier's Lookup (tier.go). Every
// tier does the same job, whatever its leaves are — partition a batch's
// indices by owning leaf (shard or member fleet), run the leaves'
// sub-lookups concurrently, reduce the partial pools through an rnet switch
// tree, finalise mean pooling over the surviving operand count, and move the
// root pool to the host — so each of those steps is defined once here,
// beside the tracing every step reports through.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

// scatter is one batch partitioned by owning leaf. It lives in the tier's
// flight and is refilled by every batch, so its arrays are reused.
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
	// arena holds the batch's indices, each query's grouped by leaf: every
	// sub-query's index set is a run of it.
	arena      []header.Index
	count, end []int // partition's per-leaf counting-sort cursors
}

// partition validates the batch and splits every query's indices by owning
// leaf, preserving index order within each sub-query. Every sub-query's
// index set is a run of the arena, so the split allocates no map and no set
// clone, and once the scatter has seen its largest batch nothing at all.
func (sc *scatter) partition(b embedding.Batch, n int, owner func(header.Index) int) error {
	if len(b.Queries) == 0 {
		return fmt.Errorf("router: empty batch")
	}
	if !b.Op.Valid() {
		return fmt.Errorf("router: invalid reduce op %d", b.Op)
	}
	subOp := b.Op
	if subOp == tensor.OpMean {
		// Leaves accumulate raw sums; reduce finalizes the mean once, over
		// the surviving operand count, exactly as a single tree's root would.
		subOp = tensor.OpSum
	}
	sc.op, sc.queries = b.Op, len(b.Queries)
	sc.subs, sc.refs = resize(sc.subs, n), resize(sc.refs, n)
	for leaf := range sc.subs {
		sc.subs[leaf] = embedding.Batch{Op: subOp, Queries: sc.subs[leaf].Queries[:0]}
		sc.refs[leaf] = sc.refs[leaf][:0]
	}
	sc.survivors = resize(sc.survivors, len(b.Queries))
	total := 0
	for _, q := range b.Queries {
		total += q.Indices.Len()
	}
	arena := resize(sc.arena, total)
	sc.arena = arena
	count, end := resize(sc.count, n), resize(sc.end, n)
	sc.count, sc.end = count, end
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
			sc.subs[leaf].Queries = append(sc.subs[leaf].Queries, embedding.Query{Indices: header.IndexSet(set[:len(set):len(set)])})
			sc.refs[leaf] = append(sc.refs[leaf], subref{query: qi, indices: c})
		}
	}
	return nil
}

// resize returns s with length n, keeping what s already holds — for a
// slice of slices, the inner arrays too — and reallocating only when s is
// too short.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// attempt is one leaf sub-lookup's outcome.
type attempt struct {
	res *core.TimedResult
	err error
}

// dispatch runs lookup for every leaf in run on min(par, len(run)) workers
// (par 0 uses every core) that pull leaves in run order from a shared
// counter, the caller's goroutine among them, storing each outcome at
// attempts[leaf]. Leaves are fully independent (own engines, memories and
// injectors), so concurrent sub-lookups share no mutable state;
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

// vectorBytes is the stored and transferred size of one vector: the store's
// dimension in float32 elements.
func (t *tier) vectorBytes() int { return 4 * t.dim }

// Clock reports the simulated cycle clock, advanced by every batch.
func (t *tier) Clock() sim.Cycle { return *t.clock }

// SetSpanContext installs the parent span ID that subsequent batch spans
// link under (0 detaches). Annotation only — timing is never perturbed.
func (t *tier) SetSpanContext(parent uint64) { t.spanCtx = parent }

// AttachTracer threads a telemetry tracer through the tier (nil detaches):
// subsequent batches emit the leaves' sub-lookup windows, probes, failover
// retries and — in a fleet — the combine as spans on the PIDRouter timeline
// (one lane per leaf, in tier-clock cycles) and the switch firings on the
// PIDRnet timeline (one lane per switch level). Leaves stay detached — a
// shard's rank-keyed lanes, or a member fleet's shard lanes, would collide
// across leaves. Tracing is observational only.
func (t *tier) AttachTracer(tr telemetry.Tracer) {
	t.tracer = tr
	if tr == nil {
		return
	}
	tr.NameProcess(telemetry.PIDRouter, t.lv.process)
	for i := range t.leaves {
		tr.NameLane(telemetry.PIDRouter, i, fmt.Sprintf("%s %d", t.lv.leaf, i))
	}
	if t.lv.combine {
		tr.NameLane(telemetry.PIDRouter, len(t.leaves), "combine")
	}
	tr.NameProcess(telemetry.PIDRnet, "rnet")
	for lvl := 1; lvl <= t.rtree.Depth(); lvl++ {
		tr.NameLane(telemetry.PIDRnet, lvl, fmt.Sprintf("%s level %d", t.lv.switchLane, lvl))
	}
}

// emitOn records one event on the simulated timeline (200 MHz PE clock),
// span-linked under parent; args precede the span identity.
func (t *tier) emitOn(cat string, pid int, name string, lane int, phase byte, ts, dur sim.Cycle, span, parent uint64, args ...telemetry.Arg) {
	if t.tracer == nil {
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
	t.tracer.Emit(ev)
}

// emit records one router event under the batch's request context; k keys
// the span identity among same-named siblings (the owning leaf).
func (t *tier) emit(name string, lane int, phase byte, ts, dur sim.Cycle, spanName string, k int, args ...telemetry.Arg) {
	t.emitOn("router", telemetry.PIDRouter, name, lane, phase, ts, dur,
		telemetry.SpanID(t.spanCtx, spanName, uint64(k)), t.spanCtx, args...)
}

// emitSwitchSpans records every switch firing on the rnet timeline, one lane
// per switch level, each span-linked under the batch's combine span. Spans
// arrive in node-ID order from the reduction (the deterministic post-hoc
// fold), so traced streams are bit-identical at every Parallelism.
func (t *tier) emitSwitchSpans(base sim.Cycle, r *rnet.Result, parent uint64) {
	if t.tracer == nil {
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
		t.emitOn("rnet", telemetry.PIDRnet, t.lv.switchEvent, sp.Level, telemetry.PhaseSpan,
			base+sp.Fire, sp.Done-sp.Fire,
			telemetry.SpanID(parent, t.lv.switchEvent, uint64(sp.Node)), parent, args...)
	}
}

// reduce is the combine and transfer phases: the delivered leaf pools reduce
// through the switch tree — every partial takes O(log_radix leaves) link
// hops, a switch fires the moment its last live child lands, lost leaves
// are simply absent (nil) and cost nothing — and only the root pool crosses
// the host link. The flight's stages carry the phases already spent (probe,
// and the backend and failover windows the leaves' Ready times contain);
// reduce fills in the rest of its result: outputs (folded into slab, one
// window per query), cycle totals and the stage split.
func (t *tier) reduce(fl *flight, slab *core.OutputSlab) (*rnet.Result, error) {
	sc, res, st := &fl.sc, fl.res, fl.stages
	outs := slab.Reset(sc.queries, t.dim)
	for qi := range outs {
		outs[qi] = slab.Window(qi)
	}
	rres, err := t.rtree.ReduceInto(sc.op, sc.queries, fl.leaves, outs, &fl.red)
	if err != nil {
		return nil, err
	}
	// Queries that lost everything (or arrived empty) produce zero vectors
	// like the engines; mean scales by the surviving operand count, the
	// single-tree root's exact finalize operation.
	res.Outputs = outs
	rootQueries := 0
	for qi, v := range outs {
		if v == nil {
			v = slab.Window(qi)
			clear(v)
			outs[qi] = v
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
	st.Transfer = t.host.DRAMToHost(t.mcfg.TransferCycles(rootQueries * t.vectorBytes()))
	res.Stages = st
	res.TotalCycles = st.Probe + rres.CriticalPath + st.Transfer
	res.TransferCycles = st.Transfer
	res.ComputeCycles = res.TotalCycles - res.MemCycles - st.Transfer

	t.rm.count(rres)
	t.emitSwitchSpans(fl.start+st.Probe, rres, telemetry.SpanID(t.spanCtx, "combine", 0))
	return rres, nil
}
