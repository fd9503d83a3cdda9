package fafnir

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// rowSink receives each timed hardware batch's staged rows when attached
	// (see AttachRowSink); nil — the default — costs one check per batch.
	rowSink RowSink
	// spare is the lookup scratch between lookups (see takeLookupScratch).
	spare atomic.Pointer[lookupScratch]

	// GoldenCheckHook, when non-nil, is called on the consumer goroutine
	// with each hardware batch's first query offset, its resolved outputs
	// and the reference fold, just before they are compared. It lets tests
	// corrupt an output, or inspect the fold, and see the check fire;
	// nothing in the program sets it.
	GoldenCheckHook func(start int, got, want []tensor.Vector)
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

// TimedResult is the outcome of one lookup: the reduced outputs, the
// tree's action counts, and the timing breakdown of Figs. 11-13. All cycle
// counts are in the PE clock domain.
type TimedResult struct {
	// Outputs holds the reduced vector of every query, in batch order.
	Outputs []tensor.Vector
	// PETotals accumulates the per-PE action counts across the whole tree.
	PETotals PEStats
	// MaxOccupancy is the largest post-merge output count any PE produced,
	// which merging keeps within the batch size (Section IV-B).
	MaxOccupancy int
	// MemoryReads is the number of DRAM vector reads the plan issued.
	MemoryReads int
	// HWBatches is how many hardware batches served the software batch.
	HWBatches int
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
	RetryCycles sim.MemCycle

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

// hwBatchStarts appends to starts the query offsets at which the hardware
// batches of an n-query batch begin.
func (e *Engine) hwBatchStarts(starts []int, n int) []int {
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
// dense row space and the query classes their header fields are over.
type rankEntries struct {
	byRank  [][]denseEntry
	rows    header.Dense
	classes queryClasses
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
// row bit, and its Queries field names the class of each using query (the
// batch's queries are classified here, once per pass). remap overrides the
// placement rank for indices whose reads the host redirected to a replica
// (nil when no faults are injected); the entry must enter the tree at the
// leaf that actually served the read so the functional and timing passes
// agree. Every buffer
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
	// The query rows are copied into the arena, so the class table points
	// nowhere else (see workScratch.reset).
	nq := len(plan.Batch().Queries)
	qrows := ws.keys[:0]
	for qi := range nq {
		b := header.Bitset(ws.words.alloc(k))
		copy(b, plan.QueryBits(qi))
		qrows = append(qrows, b)
	}
	ws.keys = qrows
	sc.classOf = slices.Grow(sc.classOf[:0], nq)[:nq]
	in.classes = ws.classify(qrows, sc.classOf)
	for _, acc := range plan.Accesses {
		r := layout.Rank(acc.Index)
		if rr, ok := remap[acc.Index]; ok {
			r = rr
		}
		v := ws.vals.alloc(dim)
		if err := store.VectorInto(acc.Index, v); err != nil {
			return rankEntries{}, err
		}
		sc.staged[acc.Row] = StagedRow{Index: acc.Index, Row: v}
		own := header.Bitset(ws.words.alloc(k))
		clear(own)
		own.Set(int(acc.Row))
		qs := header.Bitset(ws.words.alloc(in.classes.k))
		clear(qs)
		for _, qi := range acc.Users {
			qs.Set(int(sc.classOf[qi]))
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
func (e *Engine) runTree(sc *treeScratch, op tensor.ReduceOp, in rankEntries, totals *PEStats, maxOcc *int, perPE []PEStats) (stream, error) {
	if err := e.evalTree(op, in, sc); err != nil {
		return stream{}, err
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
// complete output's index set must correspond to a batch query. An output
// equal to the rows of a class it owes does (a class is a row set of the
// batch's queries); only another complete output is matched against every
// query. Violations mean the reduction tree corrupted header state and are
// reported as structured fault.ErrInvariantViolated errors rather than
// silently dropping queries.
func checkRootConservation(plan *batch.Plan, classes *queryClasses, outputs []denseEntry) error {
	n := len(plan.Batch().Queries)
	for i := range outputs {
		out := &outputs[i]
		if out.queries.Empty() {
			return fmt.Errorf("fafnir: root output %v carries no query sets: %w",
				plan.Rows.AppendIndices(nil, out.indices), fault.ErrInvariantViolated)
		}
		if classes.answers(out) || !classes.complete(out) {
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
// are long gone, so the root's class chain does it: an output whose Indices
// equal the rows of a class it owes answers that class's queries, and any
// other output is a dead partial the root discards. It is the one place
// queries are resolved, so it also answers a query with no indices — which
// reads nothing and owns no root output — with the zero vector the reference
// implementations give it, and it ends with the golden check of the batch's
// outputs (checkGolden). The outputs escape the scratch, so each is copied
// into its query's window of the caller's slab.
func (e *Engine) resolve(p *funcPass, outs []tensor.Vector, slab *OutputSlab) error {
	plan, qBase, classes, root := p.plan, p.start, &p.sc.ws.cls, p.outputs
	if err := checkRootConservation(plan, classes, root.ents); err != nil {
		return err
	}
	answer := slices.Grow(p.sc.answer[:0], len(classes.rows))[:len(classes.rows)]
	for c := range answer {
		answer[c] = -1
	}
	p.sc.answer = answer
	for _, l := range root.chain {
		if root.ents[l.ent].indices.Equal(classes.rows[l.class]) {
			answer[l.class] = l.ent
		}
	}
	sub := plan.Batch()
	for qi, q := range sub.Queries {
		v := slab.Window(qBase + qi)
		if q.Indices.Empty() {
			clear(v)
		} else if o := answer[p.sc.classOf[qi]]; o >= 0 {
			copy(v, root.ents[o].value)
			sub.Op.FinalizeMean(v, q.Indices.Len())
		} else {
			continue
		}
		outs[qBase+qi] = v
	}
	return e.checkGolden(outs[qBase:qBase+len(sub.Queries)], p.want, qBase)
}

// readFaulted performs one vector read under fault injection: a dark primary
// rank redirects to the replica placement, and ECC-flagged returns are
// retried with capped exponential backoff in the memory clock. It returns
// the effective rank that served the read and its completion cycle.
func (e *Engine) readFaulted(layout Placement, mem *dram.System, inj *fault.Injector,
	idx header.Index, clock sim.MemCycle, res *TimedResult, deg *DegradedReport) (int, sim.MemCycle, error) {
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
	k, start int             // hardware-batch ordinal and its first query's batch offset
	plan     *batch.Plan     // the ring slot's own plan, recompiled for every pass the slot holds
	sc       *treeScratch    // leased by run; released when the source moves on
	want     []tensor.Vector // golden fold per query, taken before the tree ran; aliases sc.want
	outputs  stream          // the root's; arena-backed, valid while sc is leased
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
// scratch lease, so at most len(ring) leases are ever live. A source lives in
// the engine's lookup scratch and is restarted by every lookup, so its ring,
// plans and done channels are reused.
type passSource struct {
	e      *Engine
	store  *embedding.Store
	layout Placement
	b      embedding.Batch
	dedup  bool
	starts []int // the query offsets at which hardware batches begin

	ring   []funcPass     // pass k lives in ring[k%len(ring)]; one slot when inline
	plans  []batch.Plan   // ring slot i compiles into plans[i]
	k      int            // ordinal of the pass the next call yields
	issued int            // passes handed to the workers so far
	jobs   chan *funcPass // nil when inline
	wg     sync.WaitGroup
}

// start readies the source for one lookup, deciding between inline and
// ahead-of-time passes. Inline when there is nothing to overlap (Parallelism
// 1, a single hardware batch) and when the caller is serial by nature: a
// faulted run threads the timed read loop's remap into each pass.
func (s *passSource) start(e *Engine, store *embedding.Store, layout Placement, b embedding.Batch, dedup, serial bool) {
	s.e, s.store, s.layout, s.b, s.dedup = e, store, layout, b, dedup
	s.starts = e.hwBatchStarts(s.starts[:0], len(b.Queries))
	s.k, s.issued, s.jobs = 0, 0, nil
	workers := min(e.parallelism(), len(s.starts))
	slots := 1
	if !serial && workers > 1 {
		// One pass with the consumer plus one per worker: the window that
		// bounds both the look-ahead and the live scratch leases.
		slots = workers + 1
	}
	if len(s.plans) < slots {
		s.plans = append(s.plans, make([]batch.Plan, slots-len(s.plans))...)
		s.ring = append(s.ring, make([]funcPass, slots-len(s.ring))...)
	}
	s.ring = s.ring[:slots]
	for i := range s.ring {
		s.ring[i] = funcPass{plan: &s.plans[i], done: s.ring[i].done}
	}
	if slots == 1 {
		return
	}
	for i := range s.ring {
		if s.ring[i].done == nil {
			s.ring[i].done = make(chan struct{}, 1)
		}
	}
	s.jobs = make(chan *funcPass, slots) // holds the whole window, so next never blocks sending
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
}

// compile builds the pass's access plan, in the ring slot's own plan.
func (s *passSource) compile(p *funcPass) {
	p.plan.Compile(s.e.hwBatch(s.b, p.start), s.dedup)
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
		*p = funcPass{k: s.k, start: s.starts[s.k], plan: p.plan}
		s.compile(p)
	} else {
		// Top the window up (the slot just released is free again), then
		// wait for this pass.
		for ; s.issued < len(s.starts) && s.issued < s.k+n; s.issued++ {
			q := &s.ring[s.issued%n]
			*q = funcPass{k: s.issued, start: s.starts[s.issued], plan: q.plan, done: q.done}
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
// every scratch to the free list; nothing of the lookup runs after it. A
// pass a failed lookup issued but never consumed left its done signal
// behind, which is drained so the channel starts the next lookup empty.
func (s *passSource) close() {
	if s.jobs != nil {
		close(s.jobs)
		s.wg.Wait()
		s.jobs = nil
		for i := range s.ring {
			select {
			case <-s.ring[i].done:
			default:
			}
		}
	}
	for i := range s.ring {
		s.ring[i].release(s.e)
	}
}

// release returns the pass's scratch (if any) to the free list, invalidating
// its outputs and per-PE stats.
func (p *funcPass) release(e *Engine) {
	if p.sc != nil {
		e.putTreeScratch(p.sc)
		p.sc = nil
		p.want = nil
		p.outputs = stream{}
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
// each leaf's last DRAM arrival on mem's clock. ready is reused across
// batches; every node's slot is overwritten.
func (e *Engine) treeTiming(mem *dram.System, leafReady []sim.MemCycle, ready []sim.Cycle, perPE []PEStats, inj *fault.Injector, faulted bool) sim.Cycle {
	stage := e.cfg.Latency.StageLatency()
	// flat is in construction order: children precede parents.
	for i := range e.flat {
		n := &e.flat[i]
		var inReady sim.Cycle
		if n.leaf {
			inReady = mem.ToPE(leafReady[i])
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

// TimedLookup runs the batch with full timing against the shared DRAM model.
// dedup selects whether the host compiles unique accesses (the paper's
// default) or issues every access (the Fig. 13 ablation).
//
// The timing model is a wave model: all planned reads are issued to the DRAM
// system at its current cycle, mem.Now() (per-rank queues serialize them),
// and every reported cycle count is the span from there, so the same batch
// costs the same on a fresh memory and on one that served a thousand
// lookups before it (up to open rows and refresh). Each leaf PE starts
// when the last of its ranks' reads lands, and every PE finishes one stage
// latency after its inputs are ready plus one cycle per additional output
// (the pipelined initiation interval). Successive hardware batches begin
// after the previous batch's reads complete, modelling the double-buffered
// input FIFOs.
//
// When mem carries a fault injector (dram.System.AttachFaults), reads bound
// for a dark rank are remapped to the replica placement, ECC-flagged reads
// are retried with capped exponential backoff (the cost lands in
// TotalCycles), stalled PEs charge their extra latency in the tree walk, and
// the result carries a DegradedReport. With no injector or an inactive one
// the run is bit-identical to a memory without one.
//
// The result and its outputs are the caller's: TimedLookup allocates them
// fresh for every call. TimedLookupInto is the same lookup writing into
// storage the caller keeps.
func (e *Engine) TimedLookup(store *embedding.Store, layout Placement, mem *dram.System, b embedding.Batch, dedup bool) (*TimedResult, error) {
	res := new(TimedResult)
	if err := e.TimedLookupInto(res, new(OutputSlab), store, layout, mem, b, dedup); err != nil {
		return nil, err
	}
	return res, nil
}

// TimedLookupInto is TimedLookup writing its result into res, which it
// overwrites, and its outputs into slab, which it resets: once the slab has
// grown to the batch, a steady-state lookup allocates nothing. The outputs
// are valid until the slab's next reset. On error res holds nothing of use.
func (e *Engine) TimedLookupInto(res *TimedResult, slab *OutputSlab, store *embedding.Store, layout Placement, mem *dram.System, b embedding.Batch, dedup bool) error {
	*res = TimedResult{}
	outs := slab.Reset(len(b.Queries), store.Dim())
	res.Outputs = outs
	inj := mem.Faults()
	faulted := inj.Active()
	var deg *DegradedReport
	if faulted {
		deg = &DegradedReport{}
		res.Degraded = deg
	}
	// Later hardware batches may compute their functional pass while this
	// loop is still timing an earlier one. Timing itself is charged strictly
	// per batch in program order below (the DRAM model's queues see the exact
	// serial read sequence), so cycle counts are bit-identical at every
	// Parallelism. Fault injection threads host state through the read loop
	// (remapped reads feed the functional pass), so faulted runs stay serial.
	ls := e.takeLookupScratch()
	defer e.endLookup(ls)
	src := &ls.src
	src.start(e, store, layout, b, dedup, faulted)
	res.HWBatches = len(src.starts)

	issue := mem.Now()
	issuePE := mem.ToPE(issue)
	clock := issue // memory-clock time at which the next batch may issue
	leafReady, ready := ls.leafReady, ls.ready

	for p := src.next(); p != nil; p = src.next() {
		plan := p.plan
		res.MemoryReads += plan.NumAccesses()

		// Issue every planned read; record per-leaf-input readiness. Under
		// fault injection the host consults the injector per access, remaps
		// dark-rank reads, and charges retry backoff; remap records which
		// leaf each redirected entry enters the tree through. A leaf no read
		// reaches is ready when the lookup issues.
		for i := range leafReady {
			leafReady[i] = issue
		}
		var remap map[header.Index]int
		var memDone sim.MemCycle
		for _, acc := range plan.Accesses {
			var rank int
			var done sim.MemCycle
			if faulted {
				var err error
				before := deg.RemappedReads
				rank, done, err = e.readFaulted(layout, mem, inj, acc.Index, clock, res, deg)
				if err != nil {
					return err
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
				return err
			}
			leaf, err := e.tree.LeafOfRank(rank)
			if err != nil {
				return err
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
			return err
		}
		res.PETotals.Add(p.totals)
		res.MaxOccupancy = max(res.MaxOccupancy, p.maxOcc)
		if err := e.resolve(p, outs, slab); err != nil {
			return err
		}
		if e.rowSink != nil {
			e.handRows(p)
		}
		if plan.NumAccesses() == 0 {
			continue // only empty queries: nothing occupied the memory or the tree
		}

		// Propagate readiness up the tree in the PE clock domain.
		rootDone := e.treeTiming(mem, leafReady, ready, p.perPE, inj, faulted)

		// Root-to-host transfer of the completed outputs.
		outBytes := len(p.outputs.ents) * layout.VectorBytes()
		xfer := mem.ToPE(mem.Config().TransferCycles(outBytes))

		// Trace emission happens here, in the serial timed loop, so the
		// event stream is deterministic at every Parallelism setting. clock
		// still holds this batch's issue time.
		if e.tracer != nil {
			e.traceBatch(mem, p.k, plan.NumAccesses(), len(plan.Batch().Queries),
				clock, leafReady, ready, p.perPE, rootDone+xfer)
		}

		memPE := mem.ToPE(memDone)
		res.MemCycles = memPE - issuePE
		res.ComputeCycles += rootDone - memPE
		res.TransferCycles += xfer
		res.TotalCycles = rootDone + xfer - issuePE

		// The batch's outputs and per-PE stats are fully consumed by now
		// (resolve clones, treeTiming and traceBatch only read): src.next
		// ends the scratch lease. The next hardware batch issues its reads
		// once this batch's reads have drained (input FIFOs double-buffer the
		// tree traversal).
		clock = memDone
	}

	for qi, out := range outs {
		if out == nil {
			return fmt.Errorf("fafnir: query %d produced no output: %w", qi, fault.ErrInvariantViolated)
		}
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
	return nil
}

// endLookup closes the lookup's pass source, releasing every scratch it
// leased, and hands the lookup scratch back to the engine.
func (e *Engine) endLookup(ls *lookupScratch) {
	ls.src.close()
	e.spare.Store(ls)
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
	mem := mcfg.ToPE(mcfg.TCAS + mcfg.TBurst)
	compute := sim.Cycle(e.tree.Depth()) * e.cfg.Latency.StageLatency()
	xfer := mcfg.ToPE(mcfg.TransferCycles(e.cfg.VectorBytes()))
	return mem + compute + xfer
}

// VerifyAgainstGolden compares the engine outputs with the reference
// implementation bit for bit, returning the first mismatching query (or -1).
// A missing output, and an output past the reference's last query, are
// mismatches. The store is integer-valued, so every pooling op is exact.
func VerifyAgainstGolden(got []tensor.Vector, want []tensor.Vector) int {
	for i := range want {
		if i >= len(got) || got[i] == nil || !got[i].Equal(want[i]) {
			return i
		}
	}
	if len(got) > len(want) {
		return len(want)
	}
	return -1
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
	clock := mem.Now() // memory-clock time; the queries issue from here
	issuePE := mem.ToPE(clock)

	row := tensor.New(store.Dim())
	for qi, q := range b.Queries {
		if q.Indices.Len() == 0 {
			res.Outputs[qi] = tensor.New(e.cfg.VectorDim)
			continue
		}
		// Gather the query's vectors (rank-parallel) and reduce while
		// gathering: the tree output is ready one pipeline depth after the
		// last vector lands. The output is the query's reference fold.
		var memDone sim.MemCycle
		res.Outputs[qi] = tensor.New(store.Dim())
		err := q.Fold(b.Op, res.Outputs[qi], func(idx header.Index) (tensor.Vector, error) {
			if err := e.checkRank(idx, layout.Rank(idx)); err != nil {
				return nil, err
			}
			memDone = sim.Max(memDone, mem.Read(clock, layout.Addr(idx), layout.VectorBytes(), dram.DestLocal))
			res.BytesRead += uint64(layout.VectorBytes())
			res.MemoryReads++
			return row, store.VectorInto(idx, row)
		})
		if err != nil {
			return nil, err
		}
		res.PETotals.Reduces += q.Indices.Len() - 1

		memPE := mem.ToPE(memDone)
		done := memPE + depth*stage + mem.ToPE(mem.Config().TransferCycles(layout.VectorBytes()))
		res.MemCycles = memPE - issuePE
		res.ComputeCycles += depth * stage
		res.TotalCycles = done - issuePE
		res.HWBatches++
		clock = memDone
	}
	// Interactive mode folds the per-query transfer into TotalCycles without
	// tracking it separately, so the whole latency attributes to the backend.
	res.Stages = StageCycles{Backend: res.TotalCycles}
	return res, nil
}
