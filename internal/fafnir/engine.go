package fafnir

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"fafnir/internal/batch"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// Placement tells the engine where each embedding vector lives in the
// memory system. *memmap.Layout implements it; tests substitute simpler
// mappings (e.g. Fig. 6's one-table-per-rank layout).
type Placement interface {
	// Rank returns the global rank storing the vector of the index.
	Rank(idx header.Index) int
	// Addr returns the vector's byte address for the DRAM model.
	Addr(idx header.Index) dram.Addr
	// VectorBytes reports the stored size of one vector.
	VectorBytes() int
}

// ReplicatedPlacement is a Placement that additionally keeps a replica copy
// of every vector, giving the host somewhere to remap reads when a rank goes
// dark. *memmap.Layout implements it.
type ReplicatedPlacement interface {
	Placement
	// Replica returns the rank and address of the vector's replica copy.
	Replica(idx header.Index) (rank int, addr dram.Addr, err error)
}

// Engine runs embedding-lookup batches through a Fafnir tree. One lookup may
// evaluate several hardware batches concurrently (see Config.Parallelism and
// passSource); the methods themselves keep the external contract of the
// serial engine.
type Engine struct {
	cfg  Config
	tree *Tree
	// flat is the arena-flattened mirror of tree (see flat.go); the hot path
	// iterates these dense records instead of chasing *PENode pointers.
	flat   []flatPE
	rootID int32
	// tracer receives timing events when attached (see trace.go); nil — the
	// default — costs one pointer check per hardware batch.
	tracer telemetry.Tracer
	// spanCtx is the parent span ID for request-linked tracing: when the
	// serving layer sets it (see SetSpanContext), every hw_batch span derives
	// its own ID from it and carries the parentage as span/parent args.
	spanCtx uint64
}

// NewEngine builds an engine; it returns an error for invalid configurations.
func NewEngine(cfg Config) (*Engine, error) {
	tree, err := NewTree(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, tree: tree, flat: flatten(tree), rootID: int32(tree.root.ID)}, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Tree returns the engine's topology.
func (e *Engine) Tree() *Tree { return e.tree }

// Result is the functional outcome of one batch.
type Result struct {
	// Outputs holds the reduced vector of every query, in batch order.
	Outputs []tensor.Vector
	// PETotals accumulates the per-PE action counts across the whole tree.
	PETotals PEStats
	// MaxOccupancy is the largest post-merge output count any PE produced,
	// which must respect the min(nm+n+m, B) buffer bound of Section IV-B.
	MaxOccupancy int
	// MemoryReads is the number of DRAM vector reads the plan issued.
	MemoryReads int
	// HWBatches is how many hardware batches served the software batch.
	HWBatches int
}

// TimedResult extends Result with the timing breakdown of Figs. 11-13.
// All cycle counts are in the PE clock domain.
type TimedResult struct {
	Result
	// MemCycles is when the last DRAM read completed.
	MemCycles sim.Cycle
	// ComputeCycles is the tree traversal time after the last read.
	ComputeCycles sim.Cycle
	// TransferCycles is the root-to-host transfer time for the outputs.
	TransferCycles sim.Cycle
	// TotalCycles is the end-to-end batch latency.
	TotalCycles sim.Cycle
	// BytesRead is the DRAM traffic of the batch.
	BytesRead uint64
	// Stages attributes TotalCycles to named pipeline stages; every timed
	// path fills it so that Stages.Sum() == TotalCycles exactly.
	Stages StageCycles
	// Degraded reports the graceful-degradation work of a fault-injected run;
	// nil for a fault-free run.
	Degraded *DegradedReport
}

// StageCycles is the exact latency attribution of one timed lookup: every
// producer (the single-system engine, the fleet router, the federation)
// splits its TotalCycles across these five stages so the parts sum to the
// whole with no remainder. Cycle counts are in the producer's clock domain
// (the 200 MHz PE/router clock everywhere in this repository).
type StageCycles struct {
	// Probe is breaker health-probe time ahead of dispatch (fleet only).
	Probe sim.Cycle
	// Backend is gather + reduce time inside the engines (for a fleet, the
	// slowest healthy shard window; for a federation, the slowest member).
	Backend sim.Cycle
	// Failover is serial replay time on replica shards after primary failures.
	Failover sim.Cycle
	// Combine is partial-output combining: the rnet switch tree's critical
	// path beyond the moment the leaves were ready.
	Combine sim.Cycle
	// Transfer is the final root/combine-to-host transfer of the outputs.
	Transfer sim.Cycle
}

// Sum is the five-way total; producers maintain Sum() == TotalCycles.
func (s StageCycles) Sum() sim.Cycle {
	return s.Probe + s.Backend + s.Failover + s.Combine + s.Transfer
}

// DegradedReport quantifies how much graceful-degradation work a
// fault-injected run performed. The cost is already folded into the
// TimedResult cycle counts; the report makes it attributable.
type DegradedReport struct {
	// FailedRanks lists the ranks dark by the end of the run, sorted.
	FailedRanks []int
	// RemappedReads counts vector reads redirected from a dark rank to its
	// replica placement.
	RemappedReads int
	// RemappedQueries counts queries with at least one remapped read.
	RemappedQueries int
	// Retries counts extra read attempts after ECC-flagged corrupt returns.
	Retries int
	// RetryCycles is the memory-clock time spent in backoff and re-reads,
	// summed over all retried accesses.
	RetryCycles sim.Cycle

	// Fleet-level fields, filled by the shard router (internal/router) when
	// a batch crossed a sharded deployment; empty for single-system runs.

	// Shards carries one entry per shard whose sub-lookup needed robustness
	// work (failover, probe recovery, or data loss), in shard order.
	Shards []ShardDegraded
	// LostQueries lists the batch-order query indices whose outputs are
	// partial: at least one index's shard and its replica were both
	// unreachable, so the pooled vector omits those contributions.
	LostQueries []int
	// LostIndexCounts aligns with LostQueries: how many of that query's
	// index reads were dropped. The serving layer's hot-embedding cache
	// needs the per-query count to finalize mean pooling by the true
	// survivor count when it has stripped cached indices from the batch.
	LostIndexCounts []int
}

// AddLost records n dropped index reads for batch query q, keeping
// LostQueries sorted and LostIndexCounts aligned. Repeated losses for the
// same query accumulate onto one entry.
func (d *DegradedReport) AddLost(q, n int) {
	for i, v := range d.LostQueries {
		if v == q {
			d.LostIndexCounts[i] += n
			return
		}
		if v > q {
			d.LostQueries = append(d.LostQueries, 0)
			copy(d.LostQueries[i+1:], d.LostQueries[i:])
			d.LostQueries[i] = q
			d.LostIndexCounts = append(d.LostIndexCounts, 0)
			copy(d.LostIndexCounts[i+1:], d.LostIndexCounts[i:])
			d.LostIndexCounts[i] = n
			return
		}
	}
	d.LostQueries = append(d.LostQueries, q)
	d.LostIndexCounts = append(d.LostIndexCounts, n)
}

// ShardDegraded describes one shard's contribution to a fleet-level degraded
// result: how its sub-lookup failed, whether the replica shard answered in
// its place, and how much data the batch lost when it did not.
type ShardDegraded struct {
	// Shard is the fleet-level shard identifier.
	Shard int
	// State is the shard's breaker state after the batch: "healthy",
	// "suspect", or "dark".
	State string
	// FailedOver reports that the replica shard served this shard's
	// sub-lookup, so no data was lost.
	FailedOver bool
	// LostQueries and LostIndices count the queries and index reads dropped
	// when neither the shard nor its replica could answer.
	LostQueries int
	LostIndices int
	// FailedRanks lists the shard-local ranks dark by the end of its last
	// successful sub-lookup.
	FailedRanks []int
	// Err is the structured error that triggered failover, rendered.
	Err string
}

// Empty reports whether the report records no degradation work at all — a
// fault plan was attached but nothing fired. The serving layer uses it to
// flag only genuinely degraded responses.
func (d *DegradedReport) Empty() bool {
	return d == nil || (len(d.FailedRanks) == 0 && d.RemappedReads == 0 &&
		d.Retries == 0 && len(d.Shards) == 0 && len(d.LostQueries) == 0)
}

// Seconds converts the total latency to seconds at the PE clock.
func (r TimedResult) Seconds(cfg Config) float64 {
	return sim.Seconds(r.TotalCycles, cfg.ClockMHz)
}

// Lookup runs a batch functionally (no timing): the batch is compiled with
// deduplication, split into hardware batches of at most BatchCapacity
// queries, and pushed through the tree. The outputs are validated to cover
// every query, and each against its pass's golden fold (checkGolden).
func (e *Engine) Lookup(store *embedding.Store, layout Placement, b embedding.Batch) (*Result, error) {
	res := &Result{Outputs: make([]tensor.Vector, len(b.Queries))}
	src := e.newPassSource(store, layout, b, true, false)
	defer src.close()
	res.HWBatches = len(src.starts)
	for p := src.next(); p != nil; p = src.next() {
		if err := src.reduce(p, nil); err != nil {
			return nil, err
		}
		res.MemoryReads += p.plan.NumAccesses()
		res.PETotals.Add(p.totals)
		res.MaxOccupancy = max(res.MaxOccupancy, p.maxOcc)
		if err := e.resolve(p, res); err != nil {
			return nil, err
		}
	}
	if err := checkCovered(res.Outputs); err != nil {
		return nil, err
	}
	return res, nil
}

// checkCovered reports a query the hardware batches left without an output.
func checkCovered(outputs []tensor.Vector) error {
	for qi, out := range outputs {
		if out == nil {
			return fmt.Errorf("fafnir: query %d produced no output: %w", qi, fault.ErrInvariantViolated)
		}
	}
	return nil
}

// hwBatchStarts lists the query offsets at which hardware batches begin.
func (e *Engine) hwBatchStarts(n int) []int {
	starts := make([]int, 0, (n+e.cfg.BatchCapacity-1)/e.cfg.BatchCapacity)
	for s := 0; s < n; s += e.cfg.BatchCapacity {
		starts = append(starts, s)
	}
	return starts
}

// hwBatch slices the software batch's queries for the hardware batch at the
// given start offset.
func (e *Engine) hwBatch(b embedding.Batch, start int) embedding.Batch {
	end := start + e.cfg.BatchCapacity
	if end > len(b.Queries) {
		end = len(b.Queries)
	}
	return embedding.Batch{Queries: b.Queries[start:end], Op: b.Op}
}

// rankEntries groups the leaf entries of one hardware batch by the global
// rank they were read from (byRank is indexed by rank), together with the
// dense row space their header fields are over.
type rankEntries struct {
	byRank [][]denseEntry
	rows   header.Dense
}

// checkRank rejects a placement that maps idx outside the tree's ranks. Every
// path that turns a placement rank into a leaf goes through it, so the same
// bad placement reports the same error from every lookup mode.
func (e *Engine) checkRank(idx header.Index, r int) error {
	if r < 0 || r >= e.cfg.NumRanks {
		return fmt.Errorf("fafnir: index %d maps to rank %d beyond the tree's %d ranks", idx, r, e.cfg.NumRanks)
	}
	return nil
}

// leafInputs reads every planned access from the store and builds the leaf
// entries, grouped by rank. The per-rank buffers are carved out of one arena
// reservation and the staging slices live on the scratch, so the steady-state
// hot path allocates nothing regardless of batch size. This is the one place
// global indices enter the tree: a leaf's Indices field is the access's dense
// row bit, and its Queries field holds, canonically ordered, each using
// query's row set minus that bit. remap overrides the placement rank for
// indices whose reads the host redirected to a replica (nil when no faults
// are injected); the entry must enter the tree at the leaf that actually
// served the read so the functional and timing passes agree. Every buffer
// VectorInto fills is also recorded, with the index it was filled for, under
// the access's dense row (sc.staged), for the pass's golden fold.
func (e *Engine) leafInputs(sc *treeScratch, store *embedding.Store, layout Placement, plan *batch.Plan, remap map[header.Index]int) (rankEntries, error) {
	ws := &sc.ws
	in := rankEntries{byRank: sc.in, rows: plan.Rows}
	counts := sc.counts
	clear(in.byRank)
	clear(counts)
	for _, acc := range plan.Accesses {
		r := layout.Rank(acc.Index)
		if rr, ok := remap[acc.Index]; ok {
			r = rr
		}
		if err := e.checkRank(acc.Index, r); err != nil {
			return rankEntries{}, err
		}
		counts[r]++
	}
	buf := ws.ents.alloc(plan.NumAccesses())
	off := 0
	for r, c := range counts {
		if c == 0 {
			continue
		}
		in.byRank[r] = buf[off : off : off+c]
		off += c
	}
	sc.staged = slices.Grow(sc.staged[:0], len(plan.Rows))[:len(plan.Rows)]
	clear(sc.staged)
	dim := store.Dim()
	k := plan.Rows.Words()
	rem := header.Bitset(ws.words.alloc(k))
	for _, acc := range plan.Accesses {
		r := layout.Rank(acc.Index)
		if rr, ok := remap[acc.Index]; ok {
			r = rr
		}
		v := ws.vals.alloc(dim)
		if err := store.VectorInto(acc.Index, v); err != nil {
			return rankEntries{}, err
		}
		sc.staged[acc.Row] = stagedRow{idx: acc.Index, v: v}
		own := header.Bitset(ws.words.alloc(k))
		clear(own)
		own.Set(int(acc.Row))
		qs := header.Bitset(ws.words.alloc(k * len(acc.Users)))[:0]
		for _, qi := range acc.Users {
			rem.AndNot(plan.QueryBits(int(qi)), own)
			qs = plan.Rows.Insert(qs, rem)
		}
		in.byRank[r] = append(in.byRank[r], denseEntry{value: v, indices: own, queries: qs})
	}
	return in, nil
}

// runTree evaluates every PE bottom-up on the leased scratch and returns the
// root outputs (arena-backed: valid until the scratch is released). When
// perPE is non-nil it must have NumPEs slots and receives each node's
// post-merge stats indexed by PE ID (used by the timing engine); callers
// usually pass the scratch's own perPE slice.
//
// The tree evaluates serially on the calling goroutine (see evalTree) and all
// accounting folds in construction order below, so a pass is a pure function
// of its leaf inputs no matter which goroutine ran it.
func (e *Engine) runTree(sc *treeScratch, op tensor.ReduceOp, in rankEntries, totals *PEStats, maxOcc *int, perPE []PEStats) ([]denseEntry, error) {
	if err := e.evalTree(op, in, sc); err != nil {
		return nil, err
	}

	// flat is in construction order: leaves first, IDs ascending.
	for i := range e.flat {
		st := sc.proc[i]
		if totals != nil {
			if e.flat[i].leaf {
				s := sc.self[i]
				totals.Reduces += s.Reduces
				totals.Compares += s.Compares
				totals.MergedDuplicates += s.MergedDuplicates
			}
			totals.Add(st)
		}
		if maxOcc != nil && st.Outputs > *maxOcc {
			*maxOcc = st.Outputs
		}
		if perPE != nil {
			perPE[i] = st
		}
	}
	return sc.memo[e.rootID], nil
}

// checkRootConservation is the always-on cheap invariant checker run on
// every hardware batch's root outputs: each output must still carry query
// accounting (a header that lost its query sets can never resolve), and each
// complete output's index set must correspond to a batch query. Violations
// mean the reduction tree corrupted header state and are reported as
// structured fault.ErrInvariantViolated errors rather than silently dropping
// queries.
func checkRootConservation(plan *batch.Plan, outputs []denseEntry) error {
	n := len(plan.Batch().Queries)
	for _, out := range outputs {
		if len(out.queries) == 0 {
			return fmt.Errorf("fafnir: root output %v carries no query sets: %w",
				plan.Rows.AppendIndices(nil, out.indices), fault.ErrInvariantViolated)
		}
		if !out.complete(plan.Rows.Words()) {
			continue
		}
		qi := 0
		for qi < n && !plan.QueryBits(qi).Equal(out.indices) {
			qi++
		}
		if qi == n {
			return fmt.Errorf("fafnir: root output %v matches no query: %w",
				plan.Rows.AppendIndices(nil, out.indices), fault.ErrInvariantViolated)
		}
	}
	return nil
}

// resolve maps complete root outputs back to query positions; global indices
// are long gone, so an output is matched to the queries whose row set it
// carries. It is the one place queries are resolved, so it also answers a
// query with no indices — which reads nothing and owns no root output — with
// the zero vector the reference implementations give it, and it ends with the
// golden check of the batch's outputs (checkGolden).
func (e *Engine) resolve(p *funcPass, res *Result) error {
	plan, qBase := p.plan, p.start
	if err := checkRootConservation(plan, p.outputs); err != nil {
		return err
	}
	sub := plan.Batch()
	// The outputs escape to the caller, so they cannot stay in the arena; one
	// backing array per hardware batch holds them all.
	var slab []float32
	for _, out := range p.outputs {
		if !out.complete(plan.Rows.Words()) {
			// Dead partial reduction (a query's chain that took a side
			// branch); the root discards it.
			continue
		}
		for qi, q := range sub.Queries {
			// An answered slot is a duplicate completion via another path.
			if res.Outputs[qBase+qi] == nil && plan.QueryBits(qi).Equal(out.indices) {
				n := len(out.value)
				if len(slab) < n {
					slab = make([]float32, len(sub.Queries)*n)
				}
				v := tensor.Vector(slab[:n:n])
				slab = slab[n:]
				copy(v, out.value)
				sub.Op.FinalizeMean(v, q.Indices.Len())
				res.Outputs[qBase+qi] = v
			}
		}
	}
	for qi, q := range sub.Queries {
		if q.Indices.Empty() {
			res.Outputs[qBase+qi] = tensor.New(e.cfg.VectorDim)
		}
	}
	return checkGolden(res.Outputs[qBase:qBase+len(sub.Queries)], p.want, qBase)
}

// TimedLookup runs the batch with full timing against the shared DRAM model.
// dedup selects whether the host compiles unique accesses (the paper's
// default) or issues every access (the Fig. 13 ablation).
//
// The timing model is a wave model: all planned reads are issued to the DRAM
// system at cycle zero (per-rank queues serialize them), each leaf PE starts
// when the last of its ranks' reads lands, and every PE finishes one stage
// latency after its inputs are ready plus one cycle per additional output
// (the pipelined initiation interval). Successive hardware batches begin
// after the previous batch's reads complete, modelling the double-buffered
// input FIFOs.
func (e *Engine) TimedLookup(store *embedding.Store, layout Placement, mem *dram.System, b embedding.Batch, dedup bool) (*TimedResult, error) {
	return e.timedLookup(store, layout, mem, b, dedup, nil)
}

// TimedLookupFaulted is TimedLookup under an attached fault injector: reads
// bound for a dark rank are remapped to the replica placement, ECC-flagged
// reads are retried with capped exponential backoff (the cost lands in
// TotalCycles), and stalled PEs charge their extra latency in the tree walk.
// The returned result carries a DegradedReport. With a nil or inactive
// injector the run is bit-identical to TimedLookup.
func (e *Engine) TimedLookupFaulted(store *embedding.Store, layout Placement, mem *dram.System, b embedding.Batch, dedup bool, inj *fault.Injector) (*TimedResult, error) {
	return e.timedLookup(store, layout, mem, b, dedup, inj)
}

// readFaulted performs one vector read under fault injection: a dark primary
// rank redirects to the replica placement, and ECC-flagged returns are
// retried with capped exponential backoff in the memory clock. It returns
// the effective rank that served the read and its completion cycle.
func (e *Engine) readFaulted(layout Placement, mem *dram.System, inj *fault.Injector,
	idx header.Index, clock sim.Cycle, res *TimedResult, deg *DegradedReport) (int, sim.Cycle, error) {
	rank := layout.Rank(idx)
	addr := layout.Addr(idx)
	if inj.RankFailed(rank, clock) {
		rp, ok := layout.(ReplicatedPlacement)
		if !ok {
			return 0, 0, fmt.Errorf("fafnir: index %d lives on dark rank %d and the placement keeps no replicas: %w",
				idx, rank, fault.ErrRankFailed)
		}
		rrank, raddr, err := rp.Replica(idx)
		if err != nil {
			return 0, 0, err
		}
		if inj.RankFailed(rrank, clock) {
			return 0, 0, fmt.Errorf("fafnir: index %d primary rank %d and replica rank %d are both dark: %w",
				idx, rank, rrank, fault.ErrRankFailed)
		}
		rank, addr = rrank, raddr
		deg.RemappedReads++
	}
	done, err := mem.ReadChecked(clock, addr, layout.VectorBytes(), dram.DestLocal)
	if err != nil {
		// The rank died between the host's liveness check and the read
		// reaching the memory controller (failure cycle inside this batch).
		return 0, 0, err
	}
	res.BytesRead += uint64(layout.VectorBytes())
	if inj.ReadFault() {
		first := done
		plan := inj.Plan()
		recovered := false
		for attempt := 1; attempt <= plan.Retries(); attempt++ {
			done = mem.Read(done+plan.BackoffAt(attempt), addr, layout.VectorBytes(), dram.DestLocal)
			res.BytesRead += uint64(layout.VectorBytes())
			deg.Retries++
			if !inj.ReadFault() {
				recovered = true
				break
			}
		}
		if !recovered {
			return 0, 0, fmt.Errorf("fafnir: read of index %d still corrupt after %d retries: %w",
				idx, plan.Retries(), fault.ErrRetriesExhausted)
		}
		deg.RetryCycles += done - first
	}
	return rank, done, nil
}

// funcPass is the timing-independent work of one hardware batch: the
// compiled plan, the golden fold of its queries, the functional tree
// reduction, and its accounting.
type funcPass struct {
	k, start int // hardware-batch ordinal and its first query's batch offset
	plan     *batch.Plan
	sc       *treeScratch    // leased by run; released when the source moves on
	want     []tensor.Vector // golden fold per query, taken before the tree ran; aliases sc.want
	outputs  []denseEntry    // arena-backed; valid while sc is leased
	perPE    []PEStats       // aliases sc.perPE
	totals   PEStats
	maxOcc   int
	err      error
	done     chan struct{} // ahead-of-time mode: signalled once per computed pass
}

// parallelism resolves Config.Parallelism: 0 means "use every core the
// runtime gives us".
func (e *Engine) parallelism() int {
	if e.cfg.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.cfg.Parallelism
}

// passSource yields the functional passes of a lookup's hardware batches in
// program order. It is the engine's one grain of host parallelism: either
// every pass runs inline on the caller's goroutine, or a fixed set of workers
// computes passes ahead of the consumer inside a bounded window. A pass is a
// pure function of its hardware batch and the consumer folds passes strictly
// in order, so the two modes — and every Parallelism — are bit-identical.
//
// The consumer calls next for the pass (plan compiled), reduce for its tree
// outputs, and close when done; next and close end the previous pass's
// scratch lease, so at most len(ring) leases are ever live.
type passSource struct {
	e      *Engine
	store  *embedding.Store
	layout Placement
	b      embedding.Batch
	dedup  bool
	starts []int

	ring   []funcPass     // pass k lives in ring[k%len(ring)]; one slot when inline
	k      int            // ordinal of the pass the next call yields
	issued int            // passes handed to the workers so far
	jobs   chan *funcPass // nil when inline
	wg     sync.WaitGroup
}

// newPassSource decides, once per lookup, between inline and ahead-of-time
// passes. Inline when there is nothing to overlap (Parallelism 1, a single
// hardware batch) and when the caller is serial by nature: a faulted run
// threads the timed read loop's remap into each pass.
func (e *Engine) newPassSource(store *embedding.Store, layout Placement, b embedding.Batch, dedup, serial bool) *passSource {
	s := &passSource{e: e, store: store, layout: layout, b: b, dedup: dedup, starts: e.hwBatchStarts(len(b.Queries))}
	workers := min(e.parallelism(), len(s.starts))
	if serial || workers <= 1 {
		s.ring = make([]funcPass, 1)
		return s
	}
	// One pass with the consumer plus one per worker: the window that bounds
	// both the look-ahead and the live scratch leases.
	s.ring = make([]funcPass, workers+1)
	for i := range s.ring {
		s.ring[i].done = make(chan struct{}, 1)
	}
	s.jobs = make(chan *funcPass, len(s.ring)) // holds the whole window, so next never blocks sending
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			for p := range s.jobs {
				s.compile(p)
				s.run(p, nil)
				p.done <- struct{}{}
			}
		}()
	}
	return s
}

// compile builds the pass's access plan.
func (s *passSource) compile(p *funcPass) {
	p.plan = batch.Compile(s.e.hwBatch(s.b, p.start), s.dedup)
}

// next ends the previous pass's lease and returns the next pass in program
// order with its plan compiled, or nil after the last one.
func (s *passSource) next() *funcPass {
	n := len(s.ring)
	if s.k > 0 {
		s.ring[(s.k-1)%n].release(s.e)
	}
	if s.k == len(s.starts) {
		return nil
	}
	p := &s.ring[s.k%n]
	if s.jobs == nil {
		*p = funcPass{k: s.k, start: s.starts[s.k]}
		s.compile(p)
	} else {
		// Top the window up (the slot just released is free again), then
		// wait for this pass.
		for ; s.issued < len(s.starts) && s.issued < s.k+n; s.issued++ {
			q := &s.ring[s.issued%n]
			*q = funcPass{k: s.issued, start: s.starts[s.issued], done: q.done}
			s.jobs <- q
		}
		<-p.done
	}
	s.k++
	return p
}

// reduce returns once p holds its tree outputs: it runs the functional pass
// now when inline (remap carries a faulted read loop's redirected indices)
// and only reports the outcome of a pass computed ahead.
func (s *passSource) reduce(p *funcPass, remap map[header.Index]int) error {
	if s.jobs == nil {
		s.run(p, remap)
	}
	return p.err
}

// close stops the workers, waits for the passes still in flight, and returns
// every scratch to the pool; nothing of the lookup runs after it.
func (s *passSource) close() {
	if s.jobs != nil {
		close(s.jobs)
		s.wg.Wait()
	}
	for i := range s.ring {
		s.ring[i].release(s.e)
	}
}

// release returns the pass's scratch (if any) to the pool, invalidating its
// outputs and per-PE stats.
func (p *funcPass) release(e *Engine) {
	if p.sc != nil {
		e.putTreeScratch(p.sc)
		p.sc = nil
		p.want = nil
		p.outputs = nil
		p.perPE = nil
	}
}

// run performs the functional work of a compiled pass, filling it in place:
// the leaf reads, the golden fold of every query from the rows they staged,
// and the tree reduction. The pass holds its scratch lease so the
// arena-backed fold and outputs survive until the consumer has resolved,
// checked and traced the batch.
func (s *passSource) run(p *funcPass, remap map[header.Index]int) {
	p.sc = s.e.getTreeScratch()
	leafIn, err := s.e.leafInputs(p.sc, s.store, s.layout, p.plan, remap)
	if err == nil {
		p.want, err = foldGolden(p.sc, s.store, p.plan)
	}
	if err != nil {
		p.err = err
		return
	}
	p.perPE = p.sc.perPE
	p.outputs, p.err = s.e.runTree(p.sc, s.b.Op, leafIn, &p.totals, &p.maxOcc, p.perPE)
}

// treeTiming propagates input readiness up the tree in the PE clock domain
// and returns per-node completion times (indexed by PE ID). leafReady holds
// each leaf's last DRAM arrival in the memory clock domain. ready is reused
// across batches; every node's slot is overwritten.
func (e *Engine) treeTiming(leafReady, ready []sim.Cycle, perPE []PEStats, inj *fault.Injector, faulted bool) sim.Cycle {
	stage := e.cfg.Latency.StageLatency()
	// flat is in construction order: children precede parents.
	for i := range e.flat {
		n := &e.flat[i]
		var inReady sim.Cycle
		if n.leaf {
			inReady = e.cfg.DRAMToPE(leafReady[i])
		} else {
			inReady = ready[n.left]
			if n.right >= 0 {
				inReady = sim.Max(inReady, ready[n.right])
			}
		}
		occ := perPE[i].Outputs
		t := inReady + stage
		if occ > 1 {
			t += sim.Cycle(occ - 1)
		}
		if faulted {
			t += inj.PEStall(i)
		}
		ready[i] = t
	}
	return ready[e.rootID]
}

func (e *Engine) timedLookup(store *embedding.Store, layout Placement, mem *dram.System, b embedding.Batch, dedup bool, inj *fault.Injector) (*TimedResult, error) {
	res := &TimedResult{}
	res.Outputs = make([]tensor.Vector, len(b.Queries))
	faulted := inj.Active()
	var deg *DegradedReport
	if faulted {
		deg = &DegradedReport{}
		res.Degraded = deg
		mem.AttachFaults(inj)
	}
	// Later hardware batches may compute their functional pass while this
	// loop is still timing an earlier one. Timing itself is charged strictly
	// per batch in program order below (the DRAM model's queues see the exact
	// serial read sequence), so cycle counts are bit-identical at every
	// Parallelism. Fault injection threads host state through the read loop
	// (remapped reads feed the functional pass), so faulted runs stay serial.
	src := e.newPassSource(store, layout, b, dedup, faulted)
	defer src.close()
	res.HWBatches = len(src.starts)

	var clock sim.Cycle // DRAM-domain time at which the next batch may issue
	leafReady := make([]sim.Cycle, e.tree.NumPEs())
	ready := make([]sim.Cycle, e.tree.NumPEs())

	for p := src.next(); p != nil; p = src.next() {
		plan := p.plan
		res.MemoryReads += plan.NumAccesses()

		// Issue every planned read; record per-leaf-input readiness. Under
		// fault injection the host consults the injector per access, remaps
		// dark-rank reads, and charges retry backoff; remap records which
		// leaf each redirected entry enters the tree through.
		clear(leafReady)
		var remap map[header.Index]int
		var memDone sim.Cycle
		for _, acc := range plan.Accesses {
			var rank int
			var done sim.Cycle
			if faulted {
				var err error
				before := deg.RemappedReads
				rank, done, err = e.readFaulted(layout, mem, inj, acc.Index, clock, res, deg)
				if err != nil {
					return nil, err
				}
				if deg.RemappedReads > before {
					if remap == nil {
						remap = make(map[header.Index]int)
					}
					remap[acc.Index] = rank
				}
			} else {
				rank = layout.Rank(acc.Index)
				done = mem.Read(clock, layout.Addr(acc.Index), layout.VectorBytes(), dram.DestLocal)
				res.BytesRead += uint64(layout.VectorBytes())
			}
			if err := e.checkRank(acc.Index, rank); err != nil {
				return nil, err
			}
			leaf, err := e.tree.LeafOfRank(rank)
			if err != nil {
				return nil, err
			}
			leafReady[leaf.ID] = sim.Max(leafReady[leaf.ID], done)
			memDone = sim.Max(memDone, done)
		}
		if len(remap) > 0 {
			for _, q := range plan.Batch().Queries {
				for _, idx := range q.Indices {
					if _, ok := remap[idx]; ok {
						deg.RemappedQueries++
						break
					}
				}
			}
		}

		// Functional pass to learn per-PE occupancies (already computed when
		// running ahead; faulted runs need the read loop's remap first).
		if err := src.reduce(p, remap); err != nil {
			return nil, err
		}
		res.PETotals.Add(p.totals)
		res.MaxOccupancy = max(res.MaxOccupancy, p.maxOcc)
		if err := e.resolve(p, &res.Result); err != nil {
			return nil, err
		}
		if plan.NumAccesses() == 0 {
			continue // only empty queries: nothing occupied the memory or the tree
		}

		// Propagate readiness up the tree in the PE clock domain.
		rootDone := e.treeTiming(leafReady, ready, p.perPE, inj, faulted)

		// Root-to-host transfer of the completed outputs.
		outBytes := len(p.outputs) * layout.VectorBytes()
		xfer := e.cfg.DRAMToPE(mem.Config().TransferCycles(outBytes))

		// Trace emission happens here, in the serial timed loop, so the
		// event stream is deterministic at every Parallelism setting. clock
		// still holds this batch's issue time.
		if e.tracer != nil {
			e.traceBatch(p.k, plan.NumAccesses(), len(plan.Batch().Queries),
				clock, leafReady, ready, p.perPE, rootDone+xfer)
		}

		memPE := e.cfg.DRAMToPE(memDone)
		res.MemCycles = memPE
		res.ComputeCycles += rootDone - memPE
		res.TransferCycles += xfer
		res.TotalCycles = rootDone + xfer

		// The batch's outputs and per-PE stats are fully consumed by now
		// (resolve clones, treeTiming and traceBatch only read): src.next
		// ends the scratch lease. The next hardware batch issues its reads
		// once this batch's reads have drained (input FIFOs double-buffer the
		// tree traversal).
		clock = memDone
	}

	if err := checkCovered(res.Outputs); err != nil {
		return nil, err
	}
	if faulted {
		deg.FailedRanks = inj.FailedRanks(clock)
	}
	// Stage attribution: a single-system lookup is gather+reduce plus the
	// final host transfer. TransferCycles accumulates per hardware batch while
	// TotalCycles is the absolute end time, so clamp defensively to keep the
	// Sum() == TotalCycles invariant even in pathological many-batch shapes.
	xferStage := min(res.TransferCycles, res.TotalCycles)
	res.Stages = StageCycles{Backend: res.TotalCycles - xferStage, Transfer: xferStage}
	return res, nil
}

// LowerBoundCycles returns an analytic lower bound on the TotalCycles any
// correct timing of batch b can report under this engine's configuration
// against a memory with mcfg's timings: at least one column access (tCAS) and
// one data burst in the memory clock for the first vector, the tree's
// critical path at the Table IV stage latency, and the root-to-host transfer
// of one output vector. The bound is deliberately loose — it ignores row
// activations, queueing, and per-output initiation intervals — so it holds
// for every batch, layout, and DRAM state. The conformance harness
// (internal/oracle) asserts it for every seeded run; an engine reporting
// fewer cycles has a broken clock-domain conversion or dropped a pipeline
// stage. An empty batch bounds at zero.
func (e *Engine) LowerBoundCycles(mcfg dram.Config, b embedding.Batch) sim.Cycle {
	if b.TotalAccesses() == 0 {
		return 0
	}
	mem := e.cfg.DRAMToPE(mcfg.TCAS + mcfg.TBurst)
	compute := sim.Cycle(e.tree.Depth()) * e.cfg.Latency.StageLatency()
	xfer := e.cfg.DRAMToPE(mcfg.TransferCycles(e.cfg.VectorBytes()))
	return mem + compute + xfer
}

// VerifyAgainstGolden compares the engine outputs with the reference
// implementation, returning the first mismatching query (or -1). A missing
// output, and an output past the reference's last query, are mismatches.
func VerifyAgainstGolden(got []tensor.Vector, want []tensor.Vector, tol float64) int {
	for i := range want {
		if i >= len(got) || got[i] == nil || !got[i].ApproxEqual(want[i], tol) {
			return i
		}
	}
	if len(got) > len(want) {
		return len(want)
	}
	return -1
}

// CheckOccupancyBound validates the paper's buffer bound for a run: no PE
// may hold more than min(n*m+n+m, B) outputs, with n=m=B entries per input.
func CheckOccupancyBound(res *Result, capacity int) error {
	bound := capacity*capacity + 2*capacity
	if capacity < bound {
		bound = capacity
	}
	if res.MaxOccupancy > bound {
		return fmt.Errorf("fafnir: PE occupancy %d exceeds bound %d", res.MaxOccupancy, bound)
	}
	return nil
}

// InteractiveStage is the pipeline-stage latency of interactive mode: with a
// single query in flight "all nodes would either forward or reduce without
// performing any comparisons" (Section IV-C), so the compare unit is
// bypassed and the stage costs only the slower of the parallel action paths.
func (l Latencies) InteractiveStage() sim.Cycle {
	return sim.Max(l.ReduceValue, l.Forward)
}

// InteractiveLookup processes the batch's queries one at a time in the
// paper's interactive mode: no batch headers, no deduplication across
// queries, every PE reduces whenever both inputs hold data and forwards
// otherwise. Latency per query is the memory gather plus the tree depth at
// the comparison-free stage latency; queries are serviced back to back.
//
// The mode trades the throughput of concurrent batch processing for
// per-query latency, and is the right baseline for latency-sensitive
// single-lookup serving.
func (e *Engine) InteractiveLookup(store *embedding.Store, layout Placement, mem *dram.System, b embedding.Batch) (*TimedResult, error) {
	res := &TimedResult{}
	res.Outputs = make([]tensor.Vector, len(b.Queries))

	stage := e.cfg.Latency.InteractiveStage()
	depth := sim.Cycle(e.tree.Depth())
	var clock sim.Cycle // DRAM-domain time

	for qi, q := range b.Queries {
		if q.Indices.Len() == 0 {
			res.Outputs[qi] = tensor.New(e.cfg.VectorDim)
			continue
		}
		// Gather the query's vectors (rank-parallel) and reduce while
		// gathering: the tree output is ready one pipeline depth after the
		// last vector lands.
		var memDone sim.Cycle
		var acc tensor.Vector
		for _, idx := range q.Indices {
			if err := e.checkRank(idx, layout.Rank(idx)); err != nil {
				return nil, err
			}
			done := mem.Read(clock, layout.Addr(idx), layout.VectorBytes(), dram.DestLocal)
			memDone = sim.Max(memDone, done)
			res.BytesRead += uint64(layout.VectorBytes())
			res.MemoryReads++
			v, err := store.Vector(idx)
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = v.Clone()
				continue
			}
			if err := b.Op.Apply(acc, v); err != nil {
				return nil, fmt.Errorf("fafnir: interactive reduce: %w", err)
			}
			res.PETotals.Reduces++
		}
		b.Op.FinalizeMean(acc, q.Indices.Len())
		res.Outputs[qi] = acc

		memPE := e.cfg.DRAMToPE(memDone)
		done := memPE + depth*stage + e.cfg.DRAMToPE(mem.Config().TransferCycles(layout.VectorBytes()))
		res.MemCycles = memPE
		res.ComputeCycles += depth * stage
		res.TotalCycles = done
		res.HWBatches++
		clock = memDone
	}
	// Interactive mode folds the per-query transfer into TotalCycles without
	// tracking it separately, so the whole latency attributes to the backend.
	res.Stages = StageCycles{Backend: res.TotalCycles}
	return res, nil
}
