package fafnir

import (
	"fmt"
	"slices"
	"sync"

	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// This file is the PE unit tests' harness: it states a PE's inputs and
// outputs in sorted-slice form (Entry, over global indices) and runs the
// engine's own processPE and selfMerge on them. The engine itself only ever
// runs them on dense entries, inside runTree.

// Entry is one value in flight through the tree in sorted-slice form: the
// (partially reduced) embedding data and its header.
type Entry struct {
	Value  tensor.Vector
	Header header.Header
}

// Clone deep-copies the entry.
func (e Entry) Clone() Entry {
	return Entry{Value: e.Value.Clone(), Header: e.Header.Clone()}
}

// String renders the entry's header (values are elided).
func (e Entry) String() string {
	return fmt.Sprintf("Entry%s", e.Header.String())
}

// hasQuery reports whether any remaining-set of h equals q.
func hasQuery(h header.Header, q header.IndexSet) bool {
	return slices.ContainsFunc(h.Queries, q.Equal)
}

// ProcessPE is processPE on sorted-slice entries (see viaDense).
func ProcessPE(op tensor.ReduceOp, inA, inB []Entry) ([]Entry, PEStats, error) {
	return viaDense(func(ws *workScratch, in [][]denseEntry) ([]denseEntry, PEStats, error) {
		return ws.processPE(op, in[0], in[1])
	}, inA, inB)
}

// SelfMerge is selfMerge on one sorted-slice stream (see viaDense).
func SelfMerge(op tensor.ReduceOp, entries []Entry) ([]Entry, PEStats, error) {
	return viaDense(func(ws *workScratch, in [][]denseEntry) ([]denseEntry, PEStats, error) {
		return ws.selfMerge(op, in[0])
	}, entries)
}

// namedPool recycles the list of every index a viaDense call's inputs
// mention, so BenchmarkProcessPE and BenchmarkSelfMerge count only the PE's
// own allocations and the conversion out.
var namedPool = sync.Pool{New: func() any { return new([]header.Index) }}

// viaDense runs one PE unit on sorted-slice entries: the indices the input
// streams mention anywhere in their headers are numbered as the dense rows of
// a pooled scratch, every remaining set united with its entry's Indices is
// numbered as a query class, the streams are converted to the working form,
// and the outputs are copied back out — headers to global indices, each owed
// class as its remaining set, values off the arena — so they live as long as
// the caller keeps them.
func viaDense(run func(*workScratch, [][]denseEntry) ([]denseEntry, PEStats, error), streams ...[]Entry) ([]Entry, PEStats, error) {
	var none Engine // no tree to size for: the lease is just the pooled arena
	sc := none.getTreeScratch()
	defer none.putTreeScratch(sc)
	ws := &sc.ws
	named := namedPool.Get().(*[]header.Index)
	defer namedPool.Put(named)
	all := (*named)[:0]
	for _, in := range streams {
		for _, e := range in {
			all = append(all, e.Header.Indices...)
			for _, q := range e.Header.Queries {
				all = append(all, q...)
			}
		}
	}
	slices.Sort(all)
	*named = all
	ws.begin(header.Dense(slices.Compact(all)), queryClasses{})

	dense := make([][]denseEntry, len(streams))
	full := ws.keys[:0]
	for si, in := range streams {
		dense[si] = ws.ents.alloc(len(in))
		for i, e := range in {
			ind := header.Bitset(ws.words.alloc(ws.k))
			ws.rows.Bitset(ind, e.Header.Indices)
			for _, q := range e.Header.Queries {
				f := header.Bitset(ws.words.alloc(ws.k))
				ws.rows.Bitset(f, q)
				f.Or(f, ind)
				full = append(full, f)
			}
			dense[si][i] = denseEntry{value: e.Value, indices: ind}
		}
	}
	ws.keys = full
	sc.classOf = slices.Grow(sc.classOf[:0], len(full))[:len(full)]
	cls := ws.classify(full, sc.classOf)
	ws.begin(ws.rows, cls)
	pair := 0
	for si, in := range streams {
		for i, e := range in {
			if len(e.Header.Queries) == 0 {
				continue
			}
			qs := header.Bitset(ws.words.alloc(cls.k))
			clear(qs)
			for range e.Header.Queries {
				qs.Set(int(sc.classOf[pair]))
				pair++
			}
			dense[si][i].queries = qs
		}
	}
	res, st, err := run(ws, dense)
	if len(res) == 0 {
		return nil, st, err
	}

	// Every set and value is carved out of one backing array per kind.
	nidx, nsets, nval := 0, 0, 0
	for i := range res {
		nidx += res[i].indices.Len()
		for c := range cls.rows {
			if res[i].owes(c) {
				nidx += cls.rows[c].Len()
				nsets++
			}
		}
		nval += len(res[i].value)
	}
	idx := make(header.IndexSet, 0, nidx)
	sets := make([]header.IndexSet, 0, nsets)
	vals := make(tensor.Vector, 0, nval)
	global := func(b header.Bitset) header.IndexSet {
		lo := len(idx)
		idx = ws.rows.AppendIndices(idx, b)
		return idx[lo:len(idx):len(idx)]
	}
	rem := header.Bitset(ws.words.alloc(ws.k))
	out := make([]Entry, len(res))
	for i, e := range res {
		lo, vlo := len(sets), len(vals)
		for c := range cls.rows {
			if e.owes(c) {
				rem.AndNot(cls.rows[c], e.indices)
				sets = append(sets, global(rem))
			}
		}
		vals = append(vals, e.value...)
		out[i] = Entry{Value: vals[vlo:len(vals):len(vals)], Header: header.Header{
			Indices: global(e.indices), Queries: sets[lo:len(sets):len(sets)]}}
	}
	return out, st, nil
}

// scanPartner is the partner rule as the hardware's comparators state it,
// kept as the reference for the probe (workScratch.partner): of the opposite
// entries qs covers, the one with the most Indices, the first such in input
// order, or nil when qs covers none.
func scanPartner(qs header.Bitset, opp []denseEntry) *denseEntry {
	var best *denseEntry
	bestLen := 0
	for i := range opp {
		if o := &opp[i]; qs.Covers(o.indices) {
			if n := o.indices.Len(); n > bestLen {
				best, bestLen = o, n
			}
		}
	}
	return best
}
