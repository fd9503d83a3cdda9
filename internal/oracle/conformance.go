package oracle

import (
	"cmp"
	"fmt"
	"math/rand"

	"fafnir/internal/batch"
	"fafnir/internal/cpu"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/recnmp"
	"fafnir/internal/tensor"
	"fafnir/internal/tensordimm"
)

// Check expands seed into a workload and runs the whole conformance suite
// against it: every engine versus the oracle, the read-each-unique-index-once
// property from the DRAM access log, cycle sanity bounds (stationarity on a
// long-lived memory among them), and the metamorphic properties. A nil
// return means the seed passed; a non-nil error leads with the workload
// (whose first token is the reproducing seed).
func Check(seed int64) error {
	env, err := GenWorkload(seed).Build()
	if err != nil {
		return err
	}
	checks := []struct {
		name string
		run  func(*Env) error
	}{
		{"oracle-equality", (*Env).CheckEngines},
		{"read-once", (*Env).CheckReadOnce},
		{"cycle-sanity", (*Env).CheckCycleSanity},
		{"metamorphic", (*Env).CheckMetamorphic},
	}
	for _, c := range checks {
		if err := c.run(env); err != nil {
			return fmt.Errorf("%s: %s: %w", env.W, c.name, err)
		}
	}
	return nil
}

// engine builds a Fafnir engine for the environment at the given parallelism.
func (e *Env) engine(parallelism int) (*core.Engine, error) {
	return core.NewEngine(e.FafnirConfig(parallelism))
}

// CheckEngines replays the batch through Fafnir (timed with and without
// deduplication, and interactive), RecNMP, TensorDIMM, and the host-only
// baseline, each on a fresh memory, and asserts every output set is
// bit-identical to the oracle's. The tree's PE occupancy must stay within
// the hardware batch, and baselines must report a plausible latency:
// positive total cycles covering their memory time.
func (e *Env) CheckEngines() error {
	want, err := Lookup(e.Store, e.Batch)
	if err != nil {
		return err
	}

	eng, err := e.engine(1)
	if err != nil {
		return err
	}
	for _, dedup := range []bool{true, false} {
		tres, err := eng.TimedLookup(e.Store, e.Layout, e.NewMem(), e.Batch, dedup)
		if err != nil {
			return fmt.Errorf("fafnir timed dedup=%v: %w", dedup, err)
		}
		if d := Diff(tres.Outputs, want); d != "" {
			return fmt.Errorf("fafnir timed dedup=%v: %s", dedup, d)
		}
		if tres.MaxOccupancy > e.W.BatchCapacity {
			return fmt.Errorf("fafnir timed dedup=%v: PE occupancy %d exceeds bound %d", dedup, tres.MaxOccupancy, e.W.BatchCapacity)
		}
	}
	ires, err := eng.InteractiveLookup(e.Store, e.Layout, e.NewMem(), e.Batch)
	if err != nil {
		return fmt.Errorf("fafnir interactive: %w", err)
	}
	if d := Diff(ires.Outputs, want); d != "" {
		return fmt.Errorf("fafnir interactive: %s", d)
	}

	rcfg := recnmp.Default()
	rcfg.VectorBytes = e.Layout.VectorBytes()
	reng, err := recnmp.NewEngine(rcfg)
	if err != nil {
		return err
	}
	rres, err := reng.TimedLookup(e.Store, e.Layout, e.NewMem(), e.Batch)
	if err != nil {
		return fmt.Errorf("recnmp: %w", err)
	}
	if d := Diff(rres.Outputs, want); d != "" {
		return fmt.Errorf("recnmp: %s", d)
	}
	if rres.TotalCycles <= 0 || rres.TotalCycles < rres.MemCycles {
		return fmt.Errorf("recnmp: implausible cycles total=%d mem=%d", rres.TotalCycles, rres.MemCycles)
	}

	tcfg := tensordimm.Default()
	tcfg.VectorBytes = e.Layout.VectorBytes()
	teng, err := tensordimm.NewEngine(tcfg)
	if err != nil {
		return err
	}
	tres, err := teng.TimedLookup(e.Store, e.NewMem(), e.Batch)
	if err != nil {
		return fmt.Errorf("tensordimm: %w", err)
	}
	if d := Diff(tres.Outputs, want); d != "" {
		return fmt.Errorf("tensordimm: %s", d)
	}
	if tres.TotalCycles <= 0 || tres.TotalCycles < tres.MemCycles {
		return fmt.Errorf("tensordimm: implausible cycles total=%d mem=%d", tres.TotalCycles, tres.MemCycles)
	}

	ceng, err := cpu.NewEngine(cpu.Default())
	if err != nil {
		return err
	}
	cres, err := ceng.TimedLookup(e.Store, e.Layout, e.NewMem(), e.Batch)
	if err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	if d := Diff(cres.Outputs, want); d != "" {
		return fmt.Errorf("cpu: %s", d)
	}
	if cres.TotalCycles <= 0 || cres.TotalCycles < cres.MemCycles {
		return fmt.Errorf("cpu: implausible cycles total=%d mem=%d", cres.TotalCycles, cres.MemCycles)
	}
	return nil
}

// hwBatches yields the batch's queries in hardware-batch chunks of
// BatchCapacity, mirroring the engine's own chunking. Deduplication operates
// within one hardware batch, so the read-once property is stated per chunk.
func (e *Env) hwBatches() []embedding.Batch {
	var out []embedding.Batch
	for start := 0; start < len(e.Batch.Queries); start += e.W.BatchCapacity {
		end := min(start+e.W.BatchCapacity, len(e.Batch.Queries))
		out = append(out, embedding.Batch{Queries: e.Batch.Queries[start:end], Op: e.Batch.Op})
	}
	return out
}

// CheckReadOnce attaches an access log to the DRAM model and verifies the
// paper's central claim from the observed traffic, not from engine counters:
// with dedup on, the timed run reads each unique index of each hardware batch
// exactly once (at the layout's address for it, one vector per read); with
// dedup off it reads exactly one vector per (query, index) incidence.
func (e *Env) CheckReadOnce() error {
	for _, dedup := range []bool{true, false} {
		want := make(map[dram.Addr]int)
		for _, hb := range e.hwBatches() {
			if dedup {
				for _, idx := range hb.UniqueIndices() {
					want[e.Layout.Addr(idx)]++
				}
			} else {
				for _, q := range hb.Queries {
					for _, idx := range q.Indices {
						want[e.Layout.Addr(idx)]++
					}
				}
			}
		}

		eng, err := e.engine(1)
		if err != nil {
			return err
		}
		mem := e.NewMem()
		log := &dram.AccessLog{}
		mem.AttachLog(log)
		res, err := eng.TimedLookup(e.Store, e.Layout, mem, e.Batch, dedup)
		if err != nil {
			return err
		}
		if res.MemoryReads != log.Len() {
			return fmt.Errorf("dedup=%v: engine reports %d reads, DRAM log saw %d",
				dedup, res.MemoryReads, log.Len())
		}
		got := make(map[dram.Addr]int)
		for _, rec := range log.Records() {
			if rec.Size != e.Layout.VectorBytes() {
				return fmt.Errorf("dedup=%v: read of %d bytes at %d, want vector size %d",
					dedup, rec.Size, rec.Addr, e.Layout.VectorBytes())
			}
			got[rec.Addr]++
		}
		for addr, n := range want {
			if got[addr] != n {
				return fmt.Errorf("dedup=%v: address %d read %d times, want %d",
					dedup, addr, got[addr], n)
			}
		}
		for addr, n := range got {
			if want[addr] == 0 {
				return fmt.Errorf("dedup=%v: %d reads of address %d belonging to no query", dedup, n, addr)
			}
		}
	}
	return nil
}

// CheckCycleSanity bounds the timed run from below with the engine's analytic
// lower bound, replays it on one memory, where its last run must cost what
// its first did within Stationary's bracket (a lookup's cycles may depend on
// the rows and refresh windows earlier lookups left, never on how many came
// before it), and asserts latency is monotone as the batch grows query by
// query within its first hardware batch. (Across hardware batches the model
// double-buffers: reported latency is the last batch's completion, which can
// legitimately shrink when a new small batch is appended, so end-to-end
// monotonicity is only a per-hardware-batch property.) Cumulative counters —
// memory reads and bytes — must be monotone across the full batch.
func (e *Env) CheckCycleSanity() error {
	eng, err := e.engine(1)
	if err != nil {
		return err
	}
	bound := eng.LowerBoundCycles(e.Mem, e.Batch)
	for _, dedup := range []bool{true, false} {
		mem := e.NewMem()
		var first, last *core.TimedResult
		for i := 0; i < stationarityReplays && err == nil; i++ {
			last, err = eng.TimedLookup(e.Store, e.Layout, mem, e.Batch, dedup)
			first = cmp.Or(first, last)
		}
		if err != nil {
			return err
		}
		if first.TotalCycles < bound {
			return fmt.Errorf("dedup=%v: %d total cycles below analytic lower bound %d",
				dedup, first.TotalCycles, bound)
		}
		if err := Stationary(e.Mem, first.MemoryReads, first.TotalCycles, last.TotalCycles, eng.Config().ClockMHz); err != nil {
			return fmt.Errorf("dedup=%v: stationarity: %w", dedup, err)
		}
	}

	prefix := func(k int) embedding.Batch {
		return embedding.Batch{Queries: e.Batch.Queries[:k], Op: e.Batch.Op}
	}
	limit := min(len(e.Batch.Queries), e.W.BatchCapacity)
	var prevCycles, prevReads, prevBytes = int64(0), 0, uint64(0)
	for k := 1; k <= limit; k++ {
		res, err := eng.TimedLookup(e.Store, e.Layout, e.NewMem(), prefix(k), true)
		if err != nil {
			return err
		}
		if int64(res.TotalCycles) < prevCycles {
			return fmt.Errorf("prefix %d queries: %d cycles, shorter than %d-query prefix's %d",
				k, res.TotalCycles, k-1, prevCycles)
		}
		if res.MemoryReads < prevReads || res.BytesRead < prevBytes {
			return fmt.Errorf("prefix %d queries: reads/bytes %d/%d fell below prefix %d's %d/%d",
				k, res.MemoryReads, res.BytesRead, k-1, prevReads, prevBytes)
		}
		prevCycles, prevReads, prevBytes = int64(res.TotalCycles), res.MemoryReads, res.BytesRead
	}

	// Whole-batch counters must dominate the first hardware batch's.
	full, err := eng.TimedLookup(e.Store, e.Layout, e.NewMem(), e.Batch, true)
	if err != nil {
		return err
	}
	if full.MemoryReads < prevReads || full.BytesRead < prevBytes {
		return fmt.Errorf("full batch reads/bytes %d/%d below first hardware batch's %d/%d",
			full.MemoryReads, full.BytesRead, prevReads, prevBytes)
	}
	return nil
}

// stationarityReplays is how often CheckCycleSanity replays the batch on
// one memory.
const stationarityReplays = 32

// CheckMetamorphic asserts the four workload-level properties the functional
// model must satisfy regardless of configuration:
//
//  1. permutation invariance — reordering the batch's queries permutes the
//     outputs and changes nothing else;
//  2. batch-split linearity — running two halves of the batch separately and
//     concatenating equals the one-shot run, and (sum pooling) splitting one
//     query's indices into two queries makes the two outputs sum to the
//     original, bit-exactly;
//  3. duplicate idempotence — appending a copy of an existing query yields
//     that query's exact output and adds zero memory accesses to a dedup plan;
//  4. parallelism equivalence — the timed engine at Parallelism 1, 2, and 0
//     (all cores) is bit-identical in outputs, cycles, and statistics.
func (e *Env) CheckMetamorphic() error {
	eng, err := e.engine(1)
	if err != nil {
		return err
	}
	lookup := func(b embedding.Batch) (*core.TimedResult, error) {
		return eng.TimedLookup(e.Store, e.Layout, e.NewMem(), b, true)
	}
	base, err := lookup(e.Batch)
	if err != nil {
		return err
	}
	n := len(e.Batch.Queries)

	// 1. Query-permutation invariance.
	perm := rand.New(rand.NewSource(e.W.Seed + 1)).Perm(n)
	permuted := embedding.Batch{Queries: make([]embedding.Query, n), Op: e.Batch.Op}
	for i, p := range perm {
		permuted.Queries[i] = e.Batch.Queries[p]
	}
	pres, err := lookup(permuted)
	if err != nil {
		return fmt.Errorf("permuted batch: %w", err)
	}
	for i, p := range perm {
		if d := Diff(pres.Outputs[i:i+1], base.Outputs[p:p+1]); d != "" {
			return fmt.Errorf("permutation: output %d (original query %d): %s", i, p, d)
		}
	}

	// 2a. Batch-split linearity: halves concatenate to the whole.
	if n >= 2 {
		half := n / 2
		var joined []tensor.Vector
		for _, part := range []embedding.Batch{
			{Queries: e.Batch.Queries[:half], Op: e.Batch.Op},
			{Queries: e.Batch.Queries[half:], Op: e.Batch.Op},
		} {
			r, err := lookup(part)
			if err != nil {
				return fmt.Errorf("split batch: %w", err)
			}
			for _, o := range r.Outputs {
				joined = append(joined, o)
			}
		}
		if d := Diff(joined, base.Outputs); d != "" {
			return fmt.Errorf("batch-split: %s", d)
		}
	}

	// 2b. Sum pooling is linear in the index set: splitting a query's indices
	// into two queries makes the outputs sum, exactly, because the synthetic
	// store holds small integers.
	if e.Batch.Op == tensor.OpSum {
		for qi, q := range e.Batch.Queries {
			if q.Indices.Len() < 2 {
				continue
			}
			mid := q.Indices.Len() / 2
			split := embedding.Batch{Op: e.Batch.Op, Queries: []embedding.Query{
				{Indices: q.Indices[:mid].Clone()},
				{Indices: q.Indices[mid:].Clone()},
			}}
			r, err := lookup(split)
			if err != nil {
				return fmt.Errorf("query-split: %w", err)
			}
			for el := range base.Outputs[qi] {
				if got := r.Outputs[0][el] + r.Outputs[1][el]; got != base.Outputs[qi][el] {
					return fmt.Errorf("query-split: query %d element %d: halves sum to %v, whole query %v",
						qi, el, got, base.Outputs[qi][el])
				}
			}
			break // one split query per workload keeps the suite fast
		}
	}

	// 3. Duplicate idempotence. The dedup plan of the extended batch issues
	// exactly as many reads: the copy contributes no new unique index.
	dup := embedding.Batch{Queries: append(append([]embedding.Query{}, e.Batch.Queries...),
		e.Batch.Queries[0]), Op: e.Batch.Op}
	dres, err := lookup(dup)
	if err != nil {
		return fmt.Errorf("duplicated query: %w", err)
	}
	if d := Diff(dres.Outputs[:n], base.Outputs); d != "" {
		return fmt.Errorf("duplicate: original outputs changed: %s", d)
	}
	if d := Diff(dres.Outputs[n:], base.Outputs[:1]); d != "" {
		return fmt.Errorf("duplicate: copy of query 0 disagrees with it: %s", d)
	}
	before := batch.Build(e.Batch, true).NumAccesses()
	after := batch.Build(dup, true).NumAccesses()
	if before != after {
		return fmt.Errorf("duplicate: dedup plan grew from %d to %d accesses", before, after)
	}

	// 4. Parallelism-sweep equivalence: worker count must be unobservable.
	for _, par := range []int{2, 0} {
		peng, err := e.engine(par)
		if err != nil {
			return err
		}
		got, err := peng.TimedLookup(e.Store, e.Layout, e.NewMem(), e.Batch, true)
		if err != nil {
			return fmt.Errorf("parallelism=%d: %w", par, err)
		}
		if d := Diff(got.Outputs, base.Outputs); d != "" {
			return fmt.Errorf("parallelism=%d: %s", par, d)
		}
		if got.TotalCycles != base.TotalCycles || got.MemCycles != base.MemCycles ||
			got.ComputeCycles != base.ComputeCycles || got.TransferCycles != base.TransferCycles {
			return fmt.Errorf("parallelism=%d: cycles %d/%d/%d/%d differ from serial %d/%d/%d/%d",
				par, got.TotalCycles, got.MemCycles, got.ComputeCycles, got.TransferCycles,
				base.TotalCycles, base.MemCycles, base.ComputeCycles, base.TransferCycles)
		}
		if got.PETotals != base.PETotals || got.MaxOccupancy != base.MaxOccupancy ||
			got.MemoryReads != base.MemoryReads || got.BytesRead != base.BytesRead {
			return fmt.Errorf("parallelism=%d: statistics diverge from serial run", par)
		}
	}
	return nil
}
