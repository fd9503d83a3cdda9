package fafnir

// This file holds the PE: processPE, selfMerge and the merge unit's fold, on
// the engine's working form of an in-flight value, denseEntry, whose header
// fields are header.Bitset words over the hardware batch's dense rows. A PE
// finds each remaining set's partner with one hash probe, the merge unit
// groups equal sets with one hash pass (setTable and group, in arena.go), and
// a reduce combines values only for the outputs that survive the merge, so a
// PE's host cost follows the entries it outputs. docs/ARCHITECTURE.md section
// 3 says where dense rows come from and why any order that groups equal sets
// will do.

import (
	"fmt"
	"slices"

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
// group's order keeps arrival order within a group, so the group's
// representative value is the first-arriving one (every member carries the
// same reduction), and inserting the group's Queries one by one into a
// canonical list yields the deduped set union. Distinct groups carry distinct
// Indices sets, so the order of the outputs is unique.
//
// A raw output whose reduce action is still pending (pend, aligned with raw
// and nil for a stream with none pending) carries its own value and, in pend,
// the partner's: only a representative's is combined, since the other members'
// values are dropped anyway.
func (ws *workScratch) fold(op tensor.ReduceOp, raw []denseEntry, pend []tensor.Vector, stats *PEStats) ([]denseEntry, error) {
	heads, next := ws.group(ws.indicesOf(raw))
	out := ws.ents.alloc(len(heads))[:0]
	for _, h := range heads {
		out = append(out, raw[h])
		if pend != nil && pend[h] != nil {
			v := ws.cloneVec(raw[h].value)
			if err := op.Apply(v, pend[h]); err != nil {
				return nil, fmt.Errorf("fafnir: reduce value: %w", err)
			}
			out[len(out)-1].value = v
		}
		if next[h] < 0 {
			continue
		}
		nq, members := 0, 0
		for p := int32(h); p >= 0; p = next[p] {
			nq += len(raw[p].queries)
			members++
		}
		stats.MergedDuplicates += members - 1
		list := header.Bitset(ws.words.alloc(nq)[:0])
		for p := int32(h); p >= 0; p = next[p] {
			for qs := raw[p].queries; len(qs) > 0; qs = qs[ws.k:] {
				list = list.Insert(qs[:ws.k])
			}
		}
		out[len(out)-1].queries = list
	}
	stats.Outputs = len(out)
	return out, nil
}

// processPE runs the functional semantics of one PE over its two input
// buffers (Section IV-B/IV-C). For every entry and every remaining-index set
// in its Queries field, the hardware's compute units compare the set against
// the indices field of every entry of the opposite input, and PEStats charges
// those compares:
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
// into one entry with concatenated Queries fields. A reduce action's values
// are combined there, for the surviving output only.
//
// Reducing with the maximal covered entry rather than every covered entry is
// what keeps each query's reduction a single chain through the tree. The host
// finds that entry without the compares, by an exact-partner rule that rests
// on an inductive invariant of the tree: each subtree emits exactly one entry
// covering all of a query's indices within that subtree, and fold makes every
// input's Indices sets distinct. The partner of a remaining set is therefore
// the one opposite entry whose Indices equal the set's intersection with the
// union of the opposite input's Indices; an empty intersection, or no entry
// holding it, means the set forwards. One probe of a setTable indexing the
// opposite input finds it.
//
// Every action allocates from the scratch's arenas, so the returned entries
// are valid only while the scratch is.
func (ws *workScratch) processPE(op tensor.ReduceOp, inA, inB []denseEntry) ([]denseEntry, PEStats, error) {
	stats := PEStats{InA: len(inA), InB: len(inB)}
	raw, pend := ws.raw[:0], ws.pend[:0]
	process := func(side, opp []denseEntry) {
		ws.index(opp)
		for i := range side {
			e := &side[i]
			if len(e.queries) == 0 {
				// Nothing owed by any query: pass through untouched.
				stats.Forwards++
				raw, pend = append(raw, *e), append(pend, nil)
				continue
			}
			for q := 0; q < len(e.queries); q += ws.k {
				qs := e.queries[q : q+ws.k]
				// One compare per opposite entry, charged whether or not the
				// comparator can stop early (PE timing reads this count).
				stats.Compares += len(opp)
				best := ws.partner(qs, opp)
				if best == nil {
					stats.Forwards++
					raw = append(raw, denseEntry{value: e.value, indices: e.indices, queries: qs})
					pend = append(pend, nil)
					continue
				}
				// The value is combined in fold, once per distinct output.
				stats.Reduces++
				raw = append(raw, denseEntry{
					value:   e.value,
					indices: ws.or(e.indices, best.indices),
					queries: ws.andNot(qs, best.indices),
				})
				pend = append(pend, best.value)
			}
		}
	}
	process(inA, inB)
	process(inB, inA)
	ws.raw, ws.pend = raw, pend
	out, err := ws.fold(op, raw, pend, &stats)
	return out, stats, err
}

// index builds processPE's partner index over one input: a setTable from
// each entry's Indices to its position, and the union of all of them. Input
// Indices are distinct (see processPE); a duplicate would keep its first
// position.
func (ws *workScratch) index(in []denseEntry) {
	keys := ws.indicesOf(in)
	ws.table.reset(len(keys))
	ws.probe = slices.Grow(ws.probe[:0], 2*ws.k)[:2*ws.k]
	union := header.Bitset(ws.probe[:ws.k])
	clear(union)
	for i, s := range keys {
		if slot := ws.table.find(s, keys); *slot == 0 {
			*slot = int32(i) + 1
		}
		union.Or(union, s)
	}
}

// indicesOf lists the Indices sets of in (in ws.keys, valid until the next
// call).
func (ws *workScratch) indicesOf(in []denseEntry) []header.Bitset {
	keys := ws.keys[:0]
	for i := range in {
		keys = append(keys, in[i].indices)
	}
	ws.keys = keys
	return keys
}

// partner is the exact-partner rule of processPE: the entry of in, which
// index last indexed, whose Indices equal qs's intersection with their union,
// or nil.
func (ws *workScratch) partner(qs header.Bitset, in []denseEntry) *denseEntry {
	key := header.Bitset(ws.probe[ws.k:])
	key.And(qs, ws.probe[:ws.k])
	if key.Empty() {
		return nil
	}
	if p := *ws.table.find(key, ws.keys); p != 0 {
		return &in[p-1]
	}
	return nil
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
// The stream is first put in canonical Indices order (canon), which fixes the
// order a group's members combine in, and every (entry, remaining-set) pair
// is tagged with its full query in that order; group on the full queries then
// chains each group's members, still in that order.
func (ws *workScratch) selfMerge(op tensor.ReduceOp, entries []denseEntry) ([]denseEntry, PEStats, error) {
	var total PEStats

	sets, owner := ws.sets[:0], ws.owner[:0]
	for _, pos := range ws.canon(ws.indicesOf(entries)) {
		e := &entries[pos]
		for q := 0; q < len(e.queries); q += ws.k {
			sets = append(sets, ws.or(e.indices, e.queries[q:q+ws.k]))
			owner = append(owner, int32(pos))
		}
	}
	ws.sets, ws.owner = sets, owner

	raw := ws.raw[:0]
	heads, next := ws.group(sets)
	for _, h := range heads {
		full := sets[h]
		first := &entries[owner[h]]
		covered, value := first.indices, first.value
		for p := next[h]; p >= 0; p = next[p] {
			m := &entries[owner[p]]
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
	}
	// Passthroughs are re-emitted after the groups.
	for i := range entries {
		if len(entries[i].queries) == 0 {
			raw = append(raw, entries[i])
		}
	}
	ws.raw = raw
	out, err := ws.fold(op, raw, nil, &total)
	return out, total, err
}
