package fafnir

// This file holds the PE: processPE, selfMerge and the merge unit's fold, on
// the engine's working form of an in-flight value, denseEntry, whose header
// fields are header.Bitset words, the Indices field over the hardware batch's
// dense rows and the Queries field over its query classes. A PE derives each
// remaining set from a class's rows and finds its partner with one hash probe,
// the merge unit groups equal sets with one hash pass (setTable and group, in
// arena.go), and a reduce combines values only for the outputs that survive
// the merge, so a PE's host cost follows the entries it outputs.
// docs/ARCHITECTURE.md section 3 says where dense rows and classes come from
// and why any order that groups equal sets will do.

import (
	"fmt"
	"math/bits"
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
// embedding data and its header. The Indices field is a header.Bitset over the
// hardware batch's dense rows (workScratch.rows); the Queries field is a
// header.Bitset over the batch's query classes (workScratch.cls), naming the
// classes the value still owes a reduction to. What it owes class c is never
// stored: it is always the class's rows minus the value's Indices. An entry is
// immutable once in flight — a reduce action clones the value before
// combining — so entries share storage freely.
type denseEntry struct {
	value   tensor.Vector
	indices header.Bitset
	queries header.Bitset
}

// owes reports whether e's Queries field names class c.
func (e *denseEntry) owes(c int) bool {
	return c>>6 < len(e.queries) && e.queries[c>>6]&(1<<(c&63)) != 0
}

// queryClasses is the class table of one hardware batch. A query class is the
// set of the batch's queries that share one row set; the classes are numbered
// in the canonical order of their row sets (header.Bitset.Compare), so a
// Queries field's members ascend in the order the merge unit would sort their
// remaining sets in (removing the Indices both share moves no set past
// another).
type queryClasses struct {
	rows []header.Bitset // class -> its row set
	one  []uint64        // class c's singleton Queries field, at [c*k, (c+1)*k)
	k    int             // the length of every Queries field
}

// single is the Queries field naming class c alone.
func (qc *queryClasses) single(c int) header.Bitset {
	return qc.one[c*qc.k : (c+1)*qc.k : (c+1)*qc.k]
}

// complete reports whether e is a finished reduction (Header.Complete): some
// class it owes has all its rows in e's Indices.
func (qc *queryClasses) complete(e *denseEntry) bool {
	for i, w := range e.queries {
		for ; w != 0; w &= w - 1 {
			if e.indices.Covers(qc.rows[i<<6|bits.TrailingZeros64(w)]) {
				return true
			}
		}
	}
	return false
}

// classify numbers the distinct sets of rows as query classes, in canonical
// order, and records the class of rows[i] in classOf[i]. The table's rows alias
// the sets passed in; its singleton fields are carved from the arena.
func (ws *workScratch) classify(rows []header.Bitset, classOf []int32) queryClasses {
	heads, next := ws.group(rows)
	qc := queryClasses{rows: ws.classRows[:0], k: max(1, (len(heads)+63)/64)}
	qc.one = ws.words.alloc(len(heads) * qc.k)
	clear(qc.one)
	for c, h := range heads {
		qc.rows = append(qc.rows, rows[h])
		header.Bitset(qc.one[c*qc.k:]).Set(c)
		for p := int32(h); p >= 0; p = next[p] {
			classOf[p] = int32(c)
		}
	}
	ws.classRows = qc.rows
	return qc
}

// fold is the merge unit: raw PE outputs sharing an Indices set collapse into
// one entry whose Queries field is the union of theirs, and the result is in
// canonical Indices order — the step that makes PE evaluation deterministic
// regardless of input order.
//
// group's order keeps arrival order within a group, so the group's
// representative value is the first-arriving one (every member carries the
// same reduction). Members share their Indices, so each class they owe, they
// owe the same remaining set: the union of their Queries fields is the deduped
// union of their remaining sets. Distinct groups carry distinct Indices sets,
// so the order of the outputs is unique.
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
			v := tensor.Vector(ws.vals.alloc(len(raw[h].value)))
			if err := op.ApplyTo(v, raw[h].value, pend[h]); err != nil {
				return nil, fmt.Errorf("fafnir: reduce value: %w", err)
			}
			out[len(out)-1].value = v
		}
		if next[h] < 0 {
			continue
		}
		list := header.Bitset(ws.words.alloc(ws.cls.k))
		clear(list)
		members := 0
		for p := int32(h); p >= 0; p = next[p] {
			if qs := raw[p].queries; len(qs) > 0 {
				list.Or(list, qs)
			}
			members++
		}
		stats.MergedDuplicates += members - 1
		out[len(out)-1].queries = list
	}
	stats.Outputs = len(out)
	return out, nil
}

// processPE runs the functional semantics of one PE over its two input
// buffers (Section IV-B/IV-C). For every entry and every query class in its
// Queries field, the hardware's compute units compare the class's remaining
// set against the indices field of every entry of the opposite input, and
// PEStats charges those compares:
//
//   - when opposite entries are covered by the set, the value is reduced
//     with the *maximal* covered entry — the opposite subtree's complete
//     partial reduction for that query — producing the unioned indices, which
//     owe the class the rest;
//   - when no opposite entry is covered, the class is forwarded;
//   - a class whose remaining set is already empty (a fully reduced query
//     travelling to the root) always forwards.
//
// The merge unit (fold) then removes duplicate outputs (the same reduction
// reached from both input directions) and folds outputs sharing an Indices set
// into one entry with united Queries fields. A reduce action's values are
// combined there, for the surviving output only. Two kinds of raw output are
// folded before they are made, and the folds they save are charged to
// MergedDuplicates, so every PEStats count is the per-class model's: an
// entry's forwarded classes leave as one raw output carrying all of them, and
// a reduce of the second input that mirrors one of the first (mirrored) is not
// emitted again.
//
// Reducing with the maximal covered entry rather than every covered entry is
// what keeps each query's reduction a single chain through the tree. The host
// finds that entry without the compares, by an exact-partner rule that rests
// on an inductive invariant of the tree: each subtree emits exactly one entry
// covering all of a query's indices within that subtree, and fold makes every
// input's Indices sets distinct. The partner of a remaining set is therefore
// the one opposite entry whose Indices equal the set's intersection with the
// union of the opposite input's Indices; an empty intersection, or no entry
// holding it, means the class forwards. One probe of a setTable indexing the
// opposite input finds it.
//
// Every action allocates from the scratch's arenas, so the returned entries
// are valid only while the scratch is.
func (ws *workScratch) processPE(op tensor.ReduceOp, inA, inB []denseEntry) ([]denseEntry, PEStats, error) {
	stats := PEStats{InA: len(inA), InB: len(inB)}
	raw, pend := ws.raw[:0], ws.pend[:0]
	fwd := ws.fwd
	process := func(side, opp []denseEntry, second bool) {
		ws.index(opp)
		for i := range side {
			e := &side[i]
			if e.queries.Empty() {
				// Nothing owed by any query: pass through untouched.
				stats.Forwards++
				raw, pend = append(raw, *e), append(pend, nil)
				continue
			}
			clear(fwd)
			n, nf := 0, 0
			for j, w := range e.queries {
				for ; w != 0; w &= w - 1 {
					c := j<<6 | bits.TrailingZeros64(w)
					n++
					// One compare per opposite entry, charged whether or not
					// the comparator can stop early (PE timing reads this
					// count).
					stats.Compares += len(opp)
					best := ws.partner(e, c, opp)
					if best == nil {
						fwd.Set(c)
						nf++
						continue
					}
					// The value is combined in fold, once per distinct output.
					stats.Reduces++
					if second && ws.mirrored(e, c, best) {
						stats.MergedDuplicates++
						continue
					}
					raw = append(raw, denseEntry{value: e.value, indices: ws.or(e.indices, best.indices), queries: ws.cls.single(c)})
					pend = append(pend, best.value)
				}
			}
			if nf == 0 {
				continue
			}
			stats.Forwards += nf
			stats.MergedDuplicates += nf - 1
			qs := e.queries
			if nf < n {
				qs = header.Bitset(ws.words.alloc(ws.cls.k))
				copy(qs, fwd)
			}
			raw, pend = append(raw, denseEntry{value: e.value, indices: e.indices, queries: qs}), append(pend, nil)
		}
	}
	process(inA, inB, false)
	// The first pass's opposite union, inB's, is what mirrored tests against.
	copy(ws.probe[2*ws.k:], ws.probe[:ws.k])
	process(inB, inA, true)
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
	ws.probe = slices.Grow(ws.probe[:0], 3*ws.k)[:3*ws.k]
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

// partner is the exact-partner rule of processPE for what e owes class c: the
// entry of in, which index last indexed, whose Indices equal the class's rows
// minus e's Indices, intersected with their union; or nil. The key is built in
// one pass over the words.
func (ws *workScratch) partner(e *denseEntry, c int, in []denseEntry) *denseEntry {
	rows, union := ws.cls.rows[c], ws.probe[:ws.k]
	key := header.Bitset(ws.probe[ws.k : 2*ws.k])
	var members uint64
	for i := range key {
		key[i] = rows[i] &^ e.indices[i] & union[i]
		members |= key[i]
	}
	if members == 0 {
		return nil
	}
	if p := *ws.table.find(key, ws.keys); p != 0 {
		return &in[p-1]
	}
	return nil
}

// mirrored reports whether processPE's first pass has already emitted the
// reduce of e, an entry of the second input, with best for class c: best owes
// c too, and the key it probed for c was e's Indices (the first pass's
// opposite union is at probe[2k:3k]), so it reduced with an entry holding them
// (or forwarded, had they been empty). That output has the same Indices and
// owes c, and the first pass's outputs precede the second's, so the merge unit
// would fold this one into it.
func (ws *workScratch) mirrored(e *denseEntry, c int, best *denseEntry) bool {
	if !best.owes(c) {
		return false
	}
	rows, union := ws.cls.rows[c], ws.probe[2*ws.k:3*ws.k]
	for i, w := range e.indices {
		if rows[i]&^best.indices[i]&union[i] != w {
			return false
		}
	}
	return true
}

// selfMerge reduces co-query entries that sit in the *same* input stream.
//
// Cross-input comparison alone cannot combine two indices of one query that
// live on the same rank (the paper's own Fig. 6 example needs this: indices
// 44 and 94 both reside in table 4). Physically the leaf PE receives a
// rank's entries serially and can compare each arriving entry against the
// ones already buffered; selfMerge models the result of that serial pass.
//
// Every (entry, class) pair is grouped by its class (byClass), each group's
// members are reduced together, and one entry per group is re-emitted with the
// group's indices united, owing the class the rest. Entries within one group
// must have pairwise disjoint indices — true for leaf streams, where each
// planned access contributes one distinct index — and selfMerge returns an
// error otherwise. A group that reduces nothing would re-emit its first entry
// as it is, so those classes leave as one raw output per entry, the folds
// that saves charged to MergedDuplicates as processPE charges its forwards.
// The returned stats count the reduce actions and merge-unit folds
// performed; the arena rules are processPE's.
func (ws *workScratch) selfMerge(op tensor.ReduceOp, entries []denseEntry) ([]denseEntry, PEStats, error) {
	var total PEStats
	raw, k := ws.raw[:0], ws.cls.k
	heads, next := ws.byClass(entries)
	// solo holds, per stream position, the classes its entry leaves alone with.
	solo := header.Bitset(ws.words.alloc(len(entries) * k))
	clear(solo)
	for _, h := range heads {
		pos := int(ws.owner[h])
		first := &entries[pos]
		covered, value, reduced := first.indices, first.value, false
		for p := next[h]; p >= 0; p = next[p] {
			m := &entries[ws.owner[p]]
			if covered.Covers(m.indices) {
				continue // the same entry again, or a duplicate read of the same data (non-dedup stream)
			}
			if covered.Intersects(m.indices) {
				return nil, total, fmt.Errorf("fafnir: self-merge stream entries overlap at %v", ws.rows.AppendIndices(nil, m.indices))
			}
			// The group's first reduce takes its one working copy (value and
			// indices) in the arena; the rest accumulate into it.
			dst := value
			if !reduced {
				dst = ws.vals.alloc(len(value))
				covered = ws.or(covered, m.indices)
			} else {
				covered.Or(covered, m.indices)
			}
			if err := op.ApplyTo(dst, value, m.value); err != nil {
				return nil, total, fmt.Errorf("fafnir: self-merge reduce: %w", err)
			}
			value, reduced = dst, true
			total.Reduces++
		}
		if c := int(ws.class[h]); !reduced {
			solo[pos*k:].Set(c)
		} else {
			raw = append(raw, denseEntry{value: value, indices: covered, queries: ws.cls.single(c)})
		}
	}
	// Then each entry with classes left alone, and the passthroughs.
	for pos := range entries {
		e := &entries[pos]
		if qs := solo[pos*k : (pos+1)*k : (pos+1)*k]; !qs.Empty() {
			total.MergedDuplicates += qs.Len() - 1
			raw = append(raw, denseEntry{value: e.value, indices: e.indices, queries: qs})
		} else if e.queries.Empty() {
			raw = append(raw, *e)
		}
	}
	ws.raw = raw
	out, err := ws.fold(op, raw, nil, &total)
	return out, total, err
}

// byClass is selfMerge's grouping. The stream is put in canonical Indices
// order (canon), which fixes the order a group's members combine in, and every
// (entry, class) pair is listed in that order, an entry's classes ascending:
// pair p comes from stream position ws.owner[p] and owes class ws.class[p].
// heads holds each class's first pair, classes ascending, and next chains a
// class's pairs in pair order, -1 ending the chain. Since classes are numbered
// in the canonical order of their rows, this is exactly what group would make
// of the pairs' full queries, without hashing or sorting a set. The result is
// valid until the next byClass, group or canon.
func (ws *workScratch) byClass(entries []denseEntry) (heads, next []int32) {
	owner, class, next := ws.owner[:0], ws.class[:0], ws.next[:0]
	for _, pos := range ws.canon(ws.indicesOf(entries)) {
		for i, w := range entries[pos].queries {
			for ; w != 0; w &= w - 1 {
				c := i<<6 | bits.TrailingZeros64(w)
				p := int32(len(owner))
				owner, class, next = append(owner, int32(pos)), append(class, int32(c)), append(next, -1)
				if t := ws.tail[c]; t < 0 {
					ws.head[c] = p
				} else {
					next[t] = p
				}
				ws.tail[c] = p
			}
		}
	}
	heads = ws.chains[:0]
	for c, t := range ws.tail {
		if t >= 0 {
			heads = append(heads, ws.head[c])
			ws.tail[c] = -1
		}
	}
	ws.owner, ws.class, ws.next, ws.chains = owner, class, next, heads
	return heads, next
}
