package router

// One router tier: a Lookup front-end over leaves that each run a sub-batch.
// A fleet is a tier whose leaves are shards; a federation is a tier whose
// leaves are fleets — the FAFNIR combine argument applied recursively, with
// one definition of the scatter, the settle, the loss path, the row hand-off
// and the accessors at every level. What differs between levels is data (a
// level): the names a tier's trace events carry and the metric families it
// publishes.
//
// Every leaf runs inside the same probe → breaker → failover envelope. A
// shard can fail, so the envelope exists for it. A member fleet absorbs its
// own faults — its Lookup returns only programming errors — so its breaker
// never trips, and a federation keeps no replica holder, so failover has
// nothing to do.

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/rnet"
	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// leaf is one child of a tier: a shard or a member fleet.
type leaf interface {
	// lookup runs one sub-batch issued at tier cycle at and returns its
	// result, degraded report included, with every cycle count a span from
	// at. replica reads it through the copy of its peer's rows the leaf
	// holds, during a failover; only shards hold one. The result and its
	// outputs are the leaf's own storage, valid until the leaf's next
	// lookup with the same replica flag: a tier reads them only within the
	// batch that asked for them. A shard serves at most one primary and one
	// replica sub-batch per batch, so the two never overwrite each other.
	lookup(b embedding.Batch, at sim.Cycle, replica bool) (*core.TimedResult, error)
	// collect turns the row hand-off on or off and reset empties what was
	// collected. forward passes it on: a shard appends its rows to its
	// tier's call (out), a tier makes a call of its own.
	collect(on bool)
	reset()
	forward(sink core.RowSink, out []core.StagedRow) []core.StagedRow
	// MemoryCounters reports the leaf's cumulative memory-system counters.
	MemoryCounters() dram.Counters
	// OwnerOf names the leaf-local shard storing the primary copy of idx.
	OwnerOf(idx header.Index) int
}

// level is what sets one tier apart from the next.
type level struct {
	// process and leaf name the PIDRouter timeline and its per-leaf lanes,
	// switchLane the PIDRnet lanes, switchEvent the switch spans (so the two
	// tree levels stay distinguishable on the shared timeline) and
	// lookupSpan the leaves' sub-lookup spans.
	process, leaf, switchLane, switchEvent, lookupSpan string
	// combine adds a combine span, on a lane after the leaves' lanes.
	combine bool
	// degradedArg annotates a lookup span with whether the leaf came back
	// degraded instead of with its query count.
	degradedArg bool
	// families registers the tier's own metric families; labels name the
	// leaves.
	families func(reg *telemetry.Registry, labels []string) Metrics
}

// tier is the one router front-end Fleet and Federation embed. Like the
// single System it is not safe for concurrent use — the serving layer's
// single flusher goroutine is its intended caller.
type tier struct {
	lv       *level
	leaves   []leaf
	breakers []*breaker
	// Leaf s serves the indices i with (i / stride) mod len(leaves) == s,
	// and its first row, the probe's canary, is s*stride + phase. A
	// standalone fleet and a federation have stride 1, phase 0; a
	// federation's member fm of M has stride M, phase fm, so stacked fleets
	// keep their shards balanced.
	stride, phase uint64
	// width is each leaf's shard count: leaf s's shards are the tier's
	// shards s*width onwards.
	width int
	// step is the replica distance: leaf s's rows are also held by leaf
	// s+step mod len(leaves). 0 means no leaf holds another's rows.
	step int
	// par is how many leaf sub-lookups run at once (0: every core).
	par int
	// plan schedules whole-leaf downtime; the down check reads it per
	// lookup.
	plan *fault.FleetPlan
	m    Metrics
	// forwarded is forward's reusable list of the leaves' rows.
	forwarded []core.StagedRow
	// fl is the batch in flight, reset by every lookup: all of the tier's
	// per-batch working state, so a steady-state batch allocates only the
	// result it returns.
	fl flight

	// The reduce half (pipeline.go): the switch tree over the leaves, the
	// host link the root pool crosses, and the tracing and rnet-metric
	// plumbing.
	rtree  *rnet.Tree
	dim    int
	mcfg   dram.Config
	tracer telemetry.Tracer
	// clock is the one simulated timeline of the whole hierarchy, in PE
	// cycles: every batch issues at it and advances it. A federation's
	// member fleets share its clock rather than keeping their own, so
	// shard issue times, FleetPlan stamps and breaker backoff all read the
	// one clock.
	clock *sim.Cycle
	// spanCtx is the parent span ID for request-linked tracing: the serving
	// layer sets it to the flush span's ID before each Lookup (see
	// SetSpanContext) so leaf, failover, combine, and switch spans chain
	// under the request that paid for them.
	spanCtx uint64
	rm      *rnetMetrics
	// sink receives the rows a Lookup read, forwarded after the settle (see
	// AttachRowSink); nil when detached.
	sink core.RowSink
}

// leafOf returns the leaf storing the primary copy of idx.
func (t *tier) leafOf(idx header.Index) int {
	return int(uint64(idx) / t.stride % uint64(len(t.leaves)))
}

// canaryRow is the first row leaf s owns; the probe path reads it as the
// one-query canary. newFleet guarantees it exists.
func (t *tier) canaryRow(s int) header.Index {
	return header.Index(uint64(s)*t.stride + t.phase)
}

// replicaHolder returns the leaf storing the replica copy of leaf s's rows;
// s itself when there is none. A fleet's step is max(1, N/2), so a single
// shard loss never takes out both copies (for N >= 2) and paired losses
// degrade evenly — memmap's diagonal rank replica lifted to shard
// granularity.
func (t *tier) replicaHolder(s int) int { return (s + t.step) % len(t.leaves) }

// replicaPeer inverts replicaHolder: the leaf whose rows s holds replicas
// for.
func (t *tier) replicaPeer(s int) int {
	n := len(t.leaves)
	return (s - t.step + n) % n
}

// run runs one sub-batch on leaf s, issued at tier cycle at. The down check
// runs first so a dead node fails fast without touching its engine or
// memory state — determinism across replays depends on dead shards staying
// untouched.
func (t *tier) run(s int, b embedding.Batch, at sim.Cycle, replica bool) (*core.TimedResult, error) {
	if t.plan.Down(s, at) {
		return nil, fmt.Errorf("router: shard %d is down at fleet cycle %d: %w", s, at, fault.ErrShardDown)
	}
	return t.leaves[s].lookup(b, at, replica)
}

// Shards reports the tier's shard count: a fleet's width, or a
// federation's Fleets x member Shards. The serving layer's cache partitions
// its budget across them.
func (t *tier) Shards() int { return len(t.leaves) * t.width }

// OwnerOf reports the shard storing the primary copy of idx, numbered
// across the tier: the owning leaf's shard offset plus the leaf's own
// owner. The serving layer's hot-embedding cache uses it to partition its
// byte budget by owner shard.
func (t *tier) OwnerOf(idx header.Index) int {
	s := t.leafOf(idx)
	return s*t.width + t.leaves[s].OwnerOf(idx)
}

// Dim reports the embedding dimensionality of the global store.
func (t *tier) Dim() int { return t.dim }

// MemoryCounters sums the cumulative memory-system counters of every shard
// below the tier; the serving layer's per-flush attribution works unchanged
// over a fleet or federation backend.
func (t *tier) MemoryCounters() dram.Counters {
	var c dram.Counters
	for _, l := range t.leaves {
		c = c.Add(l.MemoryCounters())
	}
	return c
}

// AttachRowSink hands the rows every subsequent Lookup reads to sink (nil
// detaches). Each shard's engine hands its rows to a buffer of that shard's
// own while the sub-lookups run; after the ordered settle, Lookup forwards
// them to sink serially on the caller's goroutine — so the sink never runs
// concurrently — one call per fleet, shard by shard (a federation makes one
// call per member, in fleet order). Replica reads arrive under the index
// they were read for, and a sub-lookup that failed forwards nothing. The
// serving layer's hot-embedding cache fills from this hand-off.
func (t *tier) AttachRowSink(sink core.RowSink) {
	t.sink = sink
	t.collect(sink != nil)
}

func (t *tier) collect(on bool) {
	for _, l := range t.leaves {
		l.collect(on)
	}
}

func (t *tier) reset() {
	for _, l := range t.leaves {
		l.reset()
	}
}

// forward hands the rows the tier's leaves collected to sink in one call,
// in leaf order and read order within a leaf; a member fleet makes its own
// call and adds nothing to out.
func (t *tier) forward(sink core.RowSink, out []core.StagedRow) []core.StagedRow {
	rows := t.forwarded[:0]
	for _, l := range t.leaves {
		rows = l.forward(sink, rows)
	}
	t.forwarded = rows
	if len(rows) > 0 {
		sink(rows)
	}
	return out
}

// flight is one batch in flight through the tier: the state Lookup's phases
// hand along. The tier owns one and every batch resets it, keeping its
// arrays, so nothing here outlives the batch: what a caller keeps is copied
// out (a public result's outputs and degraded report), and what a parent
// tier reads (a member fleet's result) it reads before this tier's next
// batch. Only the degraded report's lists are made afresh, and only by a
// batch that degrades.
type flight struct {
	sc    scatter
	start sim.Cycle // the batch's issue cycle on the tier clock
	res   *core.TimedResult
	deg   core.DegradedReport
	// entries[s] is shard s's degraded-report entry, numbered across the
	// tier and created on first use. A leaf's own entry (its failure, its
	// failover, a shard's dark ranks) arises only in a fleet, where leaf
	// and shard numbers agree.
	entries []*core.ShardDegraded
	// leaves[s] points at parts[s], the partial delivered for leaf s's
	// sub-batch — by the leaf itself or its replica holder — and is nil
	// while undelivered; pools[s] is that partial's dense per-query pool.
	leaves   []*rnet.Partial
	parts    []rnet.Partial
	pools    [][]tensor.Vector
	partials int // delivered sub-queries, the combine span's annotation
	// stages accumulates the probe, backend and failover windows as the
	// phases run; reduce completes it.
	stages core.StageCycles
	// attempts, run and failed are backend's per-leaf outcomes, the leaves
	// it dispatches and the ones it hands to failover.
	attempts    []attempt
	run, failed []int
	red         rnet.Scratch
	// own and out are a member fleet's result and outputs, handed up to the
	// parent tier (see Fleet.lookup).
	own core.TimedResult
	out core.OutputSlab
}

// reset readies the flight for a batch of the tier's leaves and shards.
func (fl *flight) reset(leaves, shards int, start sim.Cycle, res *core.TimedResult) {
	fl.start, fl.res, fl.partials, fl.stages = start, res, 0, core.StageCycles{}
	fl.deg = core.DegradedReport{}
	fl.entries = resize(fl.entries, shards)
	clear(fl.entries)
	fl.leaves, fl.parts = resize(fl.leaves, leaves), resize(fl.parts, leaves)
	clear(fl.leaves)
	fl.pools = resize(fl.pools, leaves)
	fl.attempts = resize(fl.attempts, leaves)
	clear(fl.attempts)
	fl.run, fl.failed = fl.run[:0], fl.failed[:0]
}

func (fl *flight) entry(s int) *core.ShardDegraded {
	if fl.entries[s] == nil {
		fl.entries[s] = &core.ShardDegraded{Shard: s}
	}
	return fl.entries[s]
}

// pool spreads one leaf's sub-lookup outputs into the dense per-query pool
// the switch tree reduces; queries the leaf holds nothing for stay nil.
func (fl *flight) pool(leaf int, outs []tensor.Vector) []tensor.Vector {
	pool := resize(fl.pools[leaf], fl.sc.queries)
	clear(pool)
	for i, out := range outs {
		pool[fl.sc.refs[leaf][i].query] = out
	}
	fl.pools[leaf] = pool
	return pool
}

// Lookup scatters the batch across the leaves and runs it through the five
// phases StageCycles names: probe dark leaves whose backoff elapsed, run
// every owning leaf's sub-batch (backend), retry failed sub-batches on
// replica holders (failover), then reduce the delivered partial pools
// through the switch tree and move the root pool to the host (combine,
// transfer). A batch that lost data to unreachable shards still succeeds:
// the outputs are the partial reduction of everything that survived and
// res.Degraded itemizes the loss per shard (numbered across the tier) and
// per query. Only programming errors (invariant violations, bad ops) return
// a non-nil error. The batch issues at the tier's clock, which it advances
// by its TotalCycles. The result and its outputs are the caller's: they
// share nothing with the tier's scratch and stay valid across later
// lookups.
func (t *tier) Lookup(b embedding.Batch) (*core.TimedResult, error) {
	res := new(core.TimedResult)
	if err := t.lookupAt(b, *t.clock, res, new(core.OutputSlab)); err != nil {
		return nil, err
	}
	*t.clock += res.TotalCycles
	return res, nil
}

// lookupAt is Lookup issued at tier cycle at, leaving the clock alone: it
// fills res, folding the outputs into slab.
func (t *tier) lookupAt(b embedding.Batch, at sim.Cycle, res *core.TimedResult, slab *core.OutputSlab) error {
	fl := &t.fl
	if err := fl.sc.partition(b, len(t.leaves), t.leafOf); err != nil {
		return err
	}
	t.reset()
	*res = core.TimedResult{}
	fl.reset(len(t.leaves), t.Shards(), at, res)
	if err := t.probe(fl); err != nil {
		return err
	}
	if err := t.backend(fl); err != nil {
		return err
	}
	if err := t.failover(fl); err != nil {
		return err
	}
	rres, err := t.reduce(fl, slab)
	if err != nil {
		return err
	}
	if t.lv.combine {
		windows := fl.stages.Probe + fl.stages.Backend + fl.stages.Failover
		t.emit("combine", len(t.leaves), telemetry.PhaseSpan, fl.start+windows, res.TotalCycles-windows, "combine", 0,
			telemetry.Arg{Key: "partials", Int: int64(fl.partials)},
			telemetry.Arg{Key: "switch_fires", Int: int64(rres.Fires)})
	}

	for _, e := range fl.entries {
		if e != nil {
			if e.State == "" {
				e.State = t.breakers[e.Shard/t.width].state.String()
			}
			fl.deg.Shards = append(fl.deg.Shards, *e)
		}
	}
	if !fl.deg.Empty() {
		// The report's lists were made for this batch alone (reset drops
		// them), so a copy of the struct hands them over.
		deg := fl.deg
		res.Degraded = &deg
		count(t.m.degradedBatches, 1)
		count(t.m.lostQueries, uint64(len(fl.deg.LostQueries)))
	}
	if t.sink != nil {
		t.forward(t.sink, nil)
	}
	count(t.m.batches, 1)
	return nil
}

// probe sends every dark leaf whose backoff elapsed a one-query canary
// lookup before the batch scatters. Probe time overlaps across leaves (the
// slowest one gates the scatter).
func (t *tier) probe(fl *flight) error {
	for s, br := range t.breakers {
		if !br.probeDue(fl.start) {
			continue
		}
		add(t.m.probes, s, 1)
		canary := embedding.Batch{Op: tensor.OpSum, Queries: []embedding.Query{
			{Indices: header.NewIndexSet(t.canaryRow(s))},
		}}
		r, err := t.run(s, canary, fl.start, false)
		switch {
		case err == nil:
			br.onSuccess()
			t.setState(s, Healthy)
			fl.stages.Probe = sim.Max(fl.stages.Probe, r.TotalCycles)
			add(t.m.reopens, s, 1)
			t.emit("probe.ok", s, telemetry.PhaseInstant, fl.start, 0, "probe", s)
		case structuredFault(err):
			br.onProbeFailure(fl.start)
			t.emit("probe.fail", s, telemetry.PhaseInstant, fl.start, 0, "probe", s)
		default:
			return err
		}
	}
	return nil
}

// backend runs every owning leaf's sub-batch, concurrently up to par — dark
// leaves are skipped, their traffic goes straight to failover — then
// settles the attempts strictly in leaf order: delivered partials stage as
// tree leaves, structured failures drive the breakers and are returned for
// the failover phase.
func (t *tier) backend(fl *flight) error {
	subs, attempts, run := fl.sc.subs, fl.attempts, fl.run
	for s := range subs {
		switch {
		case len(subs[s].Queries) == 0:
		case t.breakers[s].state == Dark:
			attempts[s].err = fmt.Errorf("router: shard %d is dark (breaker open): %w", s, fault.ErrShardDown)
		default:
			run = append(run, s)
		}
	}
	fl.run = run
	scatterAt := fl.start + fl.stages.Probe
	t.dispatch(attempts, run, subs, scatterAt)
	for s, a := range attempts {
		if len(subs[s].Queries) == 0 {
			continue
		}
		switch {
		case a.err == nil:
			t.breakers[s].onSuccess()
			t.setState(s, Healthy)
			t.deliver(fl, s, s, a.res, a.res.TotalCycles)
			fl.stages.Backend = sim.Max(fl.stages.Backend, a.res.TotalCycles)
			arg := telemetry.Arg{Key: "queries", Int: int64(len(subs[s].Queries))}
			if t.lv.degradedArg {
				arg = telemetry.Arg{Key: "degraded", Int: int64(boolInt(!a.res.Degraded.Empty()))}
			}
			t.emit(t.lv.lookupSpan, s, telemetry.PhaseSpan, scatterAt, a.res.TotalCycles, t.lv.lookupSpan, s, arg)
		case structuredFault(a.err):
			// A leaf that was already dark never ran: the breaker has
			// nothing new to learn from its synthesized error.
			if t.breakers[s].state != Dark {
				t.tripBreaker(s, fl.start)
			}
			t.blame(fl, s, a.err)
			fl.failed = append(fl.failed, s)
			t.emit("shard.fail", s, telemetry.PhaseInstant, scatterAt, 0, "shard.fail", s)
		default:
			return a.err
		}
	}
	return nil
}

// failover retries each failed sub-batch once against its replica holder,
// serially in leaf order, each retry issued when the one before it is done,
// unless there is none or it is itself unreachable — then the sub-batch's
// contribution is dropped and the loss recorded.
func (t *tier) failover(fl *flight) error {
	for _, s := range fl.failed {
		retryAt := fl.start + fl.stages.Probe + fl.stages.Backend + fl.stages.Failover
		target := t.replicaHolder(s)
		if target == s || t.breakers[target].state == Dark || t.plan.Down(target, retryAt) {
			t.lose(fl, s)
			continue
		}
		add(t.m.retries, s, 1)
		r, err := t.run(target, fl.sc.subs[s], retryAt, true)
		switch {
		case err == nil:
			add(t.m.failovers, s, 1)
			fl.entry(s).FailedOver = true
			// A failed-over partial is just a late leaf: it enters the
			// network when its serial retry completes, after the scatter
			// window and every earlier retry.
			t.deliver(fl, s, target, r, fl.stages.Backend+fl.stages.Failover+r.TotalCycles)
			fl.stages.Failover += r.TotalCycles
			t.emit("shard.failover", target, telemetry.PhaseSpan, retryAt, r.TotalCycles, "shard.failover", s,
				telemetry.Arg{Key: "for_shard", Int: int64(s)})
		case structuredFault(err):
			t.tripBreaker(target, fl.start)
			t.blame(fl, target, err)
			t.lose(fl, s)
		default:
			return err
		}
	}
	return nil
}

// deliver stages the partial pool leaf served produced for leaf owner's
// sub-batch as owner's tree leaf, entering the network at ready, and folds
// the sub-lookup's statistics and degraded report into the batch.
func (t *tier) deliver(fl *flight, owner, served int, r *core.TimedResult, ready sim.Cycle) {
	add(t.m.lookups, served, 1)
	pool := fl.pool(owner, r.Outputs)
	fl.parts[owner] = rnet.Partial{Vectors: pool, Ready: ready}
	fl.leaves[owner] = &fl.parts[owner]
	fl.partials += len(r.Outputs)
	absorb(fl.res, &fl.deg, r)
	if !r.Degraded.Empty() {
		add(t.m.degraded, served, 1)
		t.merge(fl, owner, served, r.Degraded, pool)
	}
}

// merge is the one loss path: it folds the report leaf served gave for leaf
// owner's sub-batch into the batch's. Lost (sub-query, indices) pairs come
// off the survivor counts. A sub-query that lost every index delivered a
// zero vector, not a partial — it must stay out of the pool or it would
// poison min/max pooling — so its slot goes absent. Shard entries move to
// tier-wide IDs, offset by the serving leaf's first shard; a report without
// any is a shard's own, and its dark ranks land on that shard's entry.
func (t *tier) merge(fl *flight, owner, served int, rep *core.DegradedReport, pool []tensor.Vector) {
	for i, sub := range rep.LostQueries {
		ref, n := fl.sc.refs[owner][sub], rep.LostIndexCounts[i]
		fl.sc.survivors[ref.query] -= n
		fl.deg.AddLost(ref.query, n)
		if n >= ref.indices && pool != nil {
			pool[ref.query] = nil
		}
	}
	if len(rep.Shards) == 0 {
		fl.entry(served).FailedRanks = append([]int(nil), rep.FailedRanks...)
	}
	for _, e := range rep.Shards {
		into := fl.entry(served*t.width + e.Shard)
		into.LostQueries += e.LostQueries
		into.LostIndices += e.LostIndices
		if e.State != "" {
			// A member fleet's entry is complete: the shard's state, error,
			// failover and dark ranks as the member saw them.
			into.State, into.Err, into.FailedOver, into.FailedRanks = e.State, e.Err, e.FailedOver, e.FailedRanks
		}
	}
}

// lose records leaf s's whole sub-batch as lost — the leaf and its replica
// holder were both unreachable — as the report such a leaf would give:
// every sub-query lost in full, the totals on the leaf's own entry.
func (t *tier) lose(fl *flight, s int) {
	rep := &core.DegradedReport{Shards: make([]core.ShardDegraded, 1)}
	for i, ref := range fl.sc.refs[s] {
		rep.AddLost(i, ref.indices)
		rep.Shards[0].LostQueries++
		rep.Shards[0].LostIndices += ref.indices
	}
	t.merge(fl, s, s, rep, nil)
	add(t.m.lost, s, 1)
}

// tripBreaker feeds one structured sub-lookup failure to leaf s's breaker.
func (t *tier) tripBreaker(s int, now sim.Cycle) {
	add(t.m.failures, s, 1)
	if t.breakers[s].onFailure(now) {
		add(t.m.dark, s, 1)
	}
	t.setState(s, t.breakers[s].state)
}

// blame records the failure on leaf s's report entry.
func (t *tier) blame(fl *flight, s int, err error) {
	e := fl.entry(s)
	e.State = t.breakers[s].state.String()
	e.Err = err.Error()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
