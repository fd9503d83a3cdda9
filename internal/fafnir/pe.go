package fafnir

// This file holds the PE: processPE, selfMerge and the merge unit's fold, on
// the engine's working form of an in-flight value, denseEntry, whose header
// fields are header.Bitset words over the hardware batch's dense rows. A
// reduce test is a few word operations there, so what is left of a PE's host
// cost is the canonical order of its outputs (canon, in arena.go).
// docs/ARCHITECTURE.md section 3 says where dense rows come from and why any
// order that groups equal sets will do.

import (
	"fmt"

	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// PEStats counts what one PE invocation did, for the timing model and for
// validating the paper's min(nm+n+m, B) output bound.
type PEStats struct {
	// InA and InB are the input occupancies.
	InA, InB int
	// Compares counts header comparisons performed (each query set of each
	// entry against each opposite entry's indices field).
	Compares int
	// Reduces counts reduce actions (a value pair combined).
	Reduces int
	// Forwards counts forward actions (a query set passed through).
	Forwards int
	// MergedDuplicates counts raw outputs eliminated or folded by the
	// merge unit.
	MergedDuplicates int
	// Outputs is the post-merge output occupancy.
	Outputs int
}

// Add accumulates o into s.
func (s *PEStats) Add(o PEStats) {
	s.InA += o.InA
	s.InB += o.InB
	s.Compares += o.Compares
	s.Reduces += o.Reduces
	s.Forwards += o.Forwards
	s.MergedDuplicates += o.MergedDuplicates
	s.Outputs += o.Outputs
}

// denseEntry is one value in flight through the tree: the (partially reduced)
// embedding data and its header, both header fields as header.Bitset words
// over the hardware batch's dense rows (workScratch.rows), the Queries field
// as Words()-long sets back to back. It is immutable once in flight — a reduce
// action clones the value before combining — so entries share storage freely.
type denseEntry struct {
	value   tensor.Vector
	indices header.Bitset
	queries header.Bitset
}

// complete is Header.Complete: no Queries field at all, or an emptied set.
func (e *denseEntry) complete(k int) bool {
	for q := 0; q < len(e.queries); q += k {
		if e.queries[q : q+k].Empty() {
			return true
		}
	}
	return len(e.queries) == 0
}

// fold is the merge unit: raw PE outputs sharing an Indices set collapse into
// one entry whose Queries fields are concatenated and canonicalized, and the
// result is in canonical Indices order — the step that makes PE evaluation
// deterministic regardless of input order.
//
// canon's order brings duplicates adjacent while preserving arrival order
// within a group, so the group's representative value is the first-arriving
// one (every member carries the same reduction), and inserting the group's
// Queries one by one into a canonical list yields the deduped set union.
// Distinct groups carry distinct Indices sets, so the order of the outputs is
// unique.
func (ws *workScratch) fold(raw []denseEntry, stats *PEStats) []denseEntry {
	ord := ws.canon(len(raw), func(pos uint64) header.Bitset { return raw[pos].indices })
	out := ws.ents.alloc(len(raw))[:0]
	for i := 0; i < len(ord); {
		first := &raw[ord[i]]
		j := i + 1
		nq := len(first.queries)
		for j < len(ord) && raw[ord[j]].indices.Equal(first.indices) {
			nq += len(raw[ord[j]].queries)
			j++
		}
		out = append(out, *first)
		if j > i+1 {
			list := header.Bitset(ws.words.alloc(nq)[:0])
			for _, pos := range ord[i:j] {
				for qs := raw[pos].queries; len(qs) > 0; qs = qs[ws.k:] {
					list = list.Insert(qs[:ws.k])
				}
			}
			out[len(out)-1].queries = list
			stats.MergedDuplicates += j - i - 1
		}
		i = j
	}
	stats.Outputs = len(out)
	return out
}

// processPE runs the functional semantics of one PE over its two input
// buffers (Section IV-B/IV-C). For every entry and every remaining-index set
// in its Queries field, the compute units compare the set against the
// indices field of every entry of the opposite input:
//
//   - when opposite entries are covered by the set, the value is reduced
//     with the *maximal* covered entry — the opposite subtree's complete
//     partial reduction for that query — producing the unioned indices and
//     the remaining set minus the partner's indices;
//   - when no opposite entry is covered, the set is forwarded unchanged;
//   - entries whose remaining set is already empty (fully reduced queries
//     travelling to the root) always forward.
//
// The merge unit (fold) then removes duplicate outputs (the same reduction
// reached from both input directions) and folds outputs sharing an Indices set
// into one entry with concatenated Queries fields.
//
// Reducing with the maximal covered entry rather than every covered entry is
// what keeps each query's reduction a single chain through the tree: an
// inductive invariant of the tree is that each subtree emits exactly one
// entry covering all of a query's indices within that subtree, so the
// maximal match is that entry and smaller matches are its superseded
// sub-chains.
//
// Every action allocates from the scratch's arenas, so the returned entries
// are valid only while the scratch is.
func (ws *workScratch) processPE(op tensor.ReduceOp, inA, inB []denseEntry) ([]denseEntry, PEStats, error) {
	stats := PEStats{InA: len(inA), InB: len(inB)}
	raw := ws.raw[:0]

	// One Sig per input entry: the compare loop below runs len(side) x
	// len(opp) times per remaining-set, and nearly every test fails.
	sigs := ws.sigs[:0]
	for _, in := range [2][]denseEntry{inA, inB} {
		for i := range in {
			sigs = append(sigs, in[i].indices.Sig())
		}
	}
	ws.sigs = sigs
	process := func(side, opp []denseEntry, oppSigs []uint64) error {
		for i := range side {
			e := &side[i]
			if len(e.queries) == 0 {
				// Nothing owed by any query: pass through untouched.
				stats.Forwards++
				raw = append(raw, *e)
				continue
			}
			for q := 0; q < len(e.queries); q += ws.k {
				qs := e.queries[q : q+ws.k]
				// One compare per opposite entry, charged whether or not the
				// comparator can stop early (PE timing reads this count).
				stats.Compares += len(opp)
				var best *denseEntry
				bestLen, sig := 0, qs.Sig()
				for oi, s := range oppSigs {
					if o := &opp[oi]; s&^sig == 0 && qs.Covers(o.indices) {
						if n := o.indices.Len(); n > bestLen {
							best, bestLen = o, n
						}
					}
				}
				if best == nil {
					stats.Forwards++
					raw = append(raw, denseEntry{value: e.value, indices: e.indices, queries: qs})
					continue
				}
				v := ws.cloneVec(e.value)
				if err := op.Apply(v, best.value); err != nil {
					return fmt.Errorf("fafnir: reduce value: %w", err)
				}
				stats.Reduces++
				raw = append(raw, denseEntry{
					value:   v,
					indices: ws.or(e.indices, best.indices),
					queries: ws.andNot(qs, best.indices),
				})
			}
		}
		return nil
	}
	err := process(inA, inB, sigs[len(inA):])
	if err == nil {
		err = process(inB, inA, sigs[:len(inA)])
	}
	ws.raw = raw
	if err != nil {
		return nil, stats, err
	}
	return ws.fold(raw, &stats), stats, nil
}

// selfMerge reduces co-query entries that sit in the *same* input stream.
//
// Cross-input comparison alone cannot combine two indices of one query that
// live on the same rank (the paper's own Fig. 6 example needs this: indices
// 44 and 94 both reside in table 4). Physically the leaf PE receives a
// rank's entries serially and can compare each arriving entry against the
// ones already buffered; selfMerge models the result of that serial pass.
//
// Every (entry, remaining-set) pair is grouped by the full query it belongs to
// (the union of the entry's indices and the remaining set), each group's
// members are reduced together, and one entry per group is re-emitted with the
// group's indices united and the remaining set shrunk accordingly. Entries
// within one group must have pairwise disjoint indices — true for leaf
// streams, where each planned access contributes one distinct index — and
// selfMerge returns an error otherwise. The returned stats count the reduce
// actions and merge-unit folds performed; the arena rules are processPE's.
//
// Grouping is sort-based. The stream is first put in canonical Indices order,
// which fixes the order a group's members combine in, and every (entry,
// remaining-set) pair is tagged with its full query in that order; canon on
// the full queries then brings each group's members adjacent, still in that
// order.
func (ws *workScratch) selfMerge(op tensor.ReduceOp, entries []denseEntry) ([]denseEntry, PEStats, error) {
	var total PEStats

	sets, owner := ws.sets[:0], ws.owner[:0]
	for _, pos := range ws.canon(len(entries), func(pos uint64) header.Bitset { return entries[pos].indices }) {
		e := &entries[pos]
		for q := 0; q < len(e.queries); q += ws.k {
			sets = append(sets, ws.or(e.indices, e.queries[q:q+ws.k]))
			owner = append(owner, int32(pos))
		}
	}
	ws.sets, ws.owner = sets, owner

	raw := ws.raw[:0]
	ord := ws.canon(len(sets), func(pos uint64) header.Bitset { return sets[pos] })
	for i := 0; i < len(ord); {
		full := sets[ord[i]]
		first := &entries[owner[ord[i]]]
		covered, value := first.indices, first.value
		j := i + 1
		for ; j < len(ord) && sets[ord[j]].Equal(full); j++ {
			m := &entries[owner[ord[j]]]
			if covered.Covers(m.indices) {
				continue // the same entry again, or a duplicate read of the same data (non-dedup stream)
			}
			if covered.Intersects(m.indices) {
				return nil, total, fmt.Errorf("fafnir: self-merge stream entries overlap at %v", ws.rows.AppendIndices(nil, m.indices))
			}
			v := ws.cloneVec(value)
			if err := op.Apply(v, m.value); err != nil {
				return nil, total, fmt.Errorf("fafnir: self-merge reduce: %w", err)
			}
			value = v
			covered = ws.or(covered, m.indices)
			total.Reduces++
		}
		raw = append(raw, denseEntry{value: value, indices: covered, queries: ws.andNot(full, covered)})
		i = j
	}
	// Passthroughs are re-emitted after the groups.
	for i := range entries {
		if len(entries[i].queries) == 0 {
			raw = append(raw, entries[i])
		}
	}
	ws.raw = raw
	return ws.fold(raw, &total), total, nil
}
