package fafnir

// This file holds the PE: selfMerge and processPE, on the engine's working
// form of an in-flight value, denseEntry, whose header fields are
// header.Bitset words — the Indices field over the hardware batch's dense
// rows, the Queries field over its query classes — gathered into streams,
// which carry a class chain beside their entries. The tree keeps one
// invariant (docs/ARCHITECTURE.md section 3): a subtree emits exactly one
// entry per query class it holds rows of. A stream's chain, one link per
// class it owes in ascending class order, is therefore its class → entry
// table, and a PE joins its two children's tables class by class: no header
// set is hashed, probed or sorted, and a reduce combines values once per
// distinct output.

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

// link ties a query class to the position of the stream entry owing it.
type link struct{ class, ent int32 }

// stream is one PE input or output: its entries and its class chain, one
// link per class the stream owes, classes ascending. Each class is owed by
// exactly one entry (the tree invariant), so the chain is the stream's
// class → entry table. Both slices are carved from the scratch's arenas.
type stream struct {
	ents  []denseEntry
	chain []link
}

// queryClasses is the class table of one hardware batch. A query class is the
// set of the batch's queries that share one row set; the classes are numbered
// in the order their row sets first appear among the batch's queries.
type queryClasses struct {
	rows []header.Bitset // class -> its row set
	k    int             // the length of every Queries field
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

// answers reports whether e's Indices equal the rows of a class it owes: e
// is that class's finished reduction, and answers its queries.
func (qc *queryClasses) answers(e *denseEntry) bool {
	for i, w := range e.queries {
		for ; w != 0; w &= w - 1 {
			if e.indices.Equal(qc.rows[i<<6|bits.TrailingZeros64(w)]) {
				return true
			}
		}
	}
	return false
}

// topRow is one past the highest row of b, 0 for the empty set. Equal sets
// share it, so it buckets sets for an equality search; the highest rather
// than the lowest row, since the lowest indices are a skewed batch's hottest.
func topRow(b header.Bitset) int32 {
	for i := len(b) - 1; i >= 0; i-- {
		if w := b[i]; w != 0 {
			return int32(i<<6 + bits.Len64(w))
		}
	}
	return 0
}

// negs returns s resized to n with every element -1, relying on what s
// holds already being -1 (the state its users restore).
func negs(s []int32, n int) []int32 {
	if n <= cap(s) {
		return s[:n]
	}
	s = slices.Grow(s[:0], n)
	s = s[:cap(s)]
	for i := range s {
		s[i] = -1
	}
	return s[:n]
}

// classify numbers the distinct sets of rows as query classes, in order of
// first appearance, and records the class of rows[i] in classOf[i]. A set is
// compared only with the classes whose rows end on the same row (topRow).
// The table's rows alias the sets passed in.
func (ws *workScratch) classify(rows []header.Bitset, classOf []int32) queryClasses {
	qc := queryClasses{rows: ws.classRows[:0]}
	prev := ws.classPrev[:0] // class -> the class before it in its bucket
	if len(rows) > 0 {
		ws.byTop = negs(ws.byTop, 64*len(rows[0])+1)
	}
	for i, s := range rows {
		t := topRow(s)
		c := ws.byTop[t]
		for c >= 0 && !qc.rows[c].Equal(s) {
			c = prev[c]
		}
		if c < 0 {
			c = int32(len(qc.rows))
			qc.rows, prev = append(qc.rows, s), append(prev, ws.byTop[t])
			ws.byTop[t] = c
		}
		classOf[i] = c
	}
	for _, s := range qc.rows {
		ws.byTop[topRow(s)] = -1
	}
	qc.k = max(1, (len(qc.rows)+63)/64)
	ws.classRows, ws.classPrev = qc.rows, prev
	return qc
}

// start empties the output buffers for a PE call.
func (ws *workScratch) start() {
	ws.out, ws.rec, ws.chain = ws.out[:0], ws.rec[:0], ws.chain[:0]
}

// emit appends an output of value and indices that owes no class yet, with
// its bucket record (a key and the next output in the key's bucket), and
// returns its position.
func (ws *workScratch) emit(value tensor.Vector, indices header.Bitset, key, next int32) int32 {
	qs := header.Bitset(ws.words.alloc(ws.cls.k))
	clear(qs)
	o := len(ws.out)
	ws.out = append(ws.out, denseEntry{})
	e := &ws.out[o] // filled in place: a composite literal would bounce through the stack
	e.value, e.indices, e.queries = value, indices, qs
	ws.rec = append(ws.rec, bucketRec{key: key, next: next})
	return int32(o)
}

// owe makes output o owe class c and links c to it.
func (ws *workScratch) owe(o, c int32) {
	ws.out[o].queries.Set(int(c))
	ws.chain = append(ws.chain, link{class: c, ent: o})
}

// finish copies the outputs emitted since start into the arena as a stream,
// and records their count in st.
func (ws *workScratch) finish(st *PEStats) stream {
	s := stream{ents: ws.ents.alloc(len(ws.out)), chain: ws.links.alloc(len(ws.chain))}
	copy(s.ents, ws.out)
	copy(s.chain, ws.chain)
	st.Outputs = len(s.ents)
	return s
}

// processPE runs the functional semantics of one PE over its two input
// streams (Section IV-B/IV-C), by walking both class chains in ascending
// class order:
//
//   - a class both inputs owe is a reduce: the hardware compares the
//     class's remaining set against every opposite entry and reduces with
//     the maximal covered one, which by the tree invariant is the opposite
//     input's entry owing the class. Both directions reduce (the merge unit
//     drops the mirror), and one output per distinct (A entry, B entry) pair
//     carries the unioned Indices and every class the pair reduces for;
//   - a class one input owes is a forward: each forwarding entry leaves as
//     one output owing all the classes it forwards.
//
// Outputs come out in the order of the least class they owe, whatever order
// the inputs arrived in. PEStats charges the per-class model exactly: with
// CA and CB the classes the inputs owe,
//
//	Compares         = |CA|·|B| + |CB|·|A|
//	Reduces          = 2·|CA∩CB|
//	Forwards         = |CA△CB|
//	MergedDuplicates = |CA∩CB| + Σ(classes − 1) over outputs
//
// — the mirrors, and the raw outputs each output's extra classes would have
// made. An entry owing no class has no link and leaves nothing. Every action
// allocates from the scratch's arenas, so the returned stream is valid only
// while the scratch is.
func (ws *workScratch) processPE(op tensor.ReduceOp, a, b stream) (stream, PEStats, error) {
	na, nb := len(a.ents), len(b.ents)
	st := PEStats{InA: na, InB: nb, Compares: len(a.chain)*nb + len(b.chain)*na}
	ws.start()
	// Per input entry: its forward output, and for an A entry the latest of
	// its pair outputs (rec chains the rest by B partner).
	ws.slots = slices.Grow(ws.slots[:0], 2*na+nb)[:2*na+nb]
	for i := range ws.slots {
		ws.slots[i] = -1
	}
	fwdA, fwdB, pairs := ws.slots[:na], ws.slots[na:na+nb], ws.slots[na+nb:]
	forward := func(slot *int32, e *denseEntry) int32 {
		st.Forwards++
		if *slot < 0 {
			*slot = ws.emit(e.value, e.indices, -1, -1)
		} else {
			st.MergedDuplicates++
		}
		return *slot
	}
	for i, j := 0, 0; i < len(a.chain) || j < len(b.chain); {
		var c, o int32
		switch {
		case j == len(b.chain) || i < len(a.chain) && a.chain[i].class < b.chain[j].class:
			l := a.chain[i]
			c, o = l.class, forward(&fwdA[l.ent], &a.ents[l.ent])
			i++
		case i == len(a.chain) || b.chain[j].class < a.chain[i].class:
			l := b.chain[j]
			c, o = l.class, forward(&fwdB[l.ent], &b.ents[l.ent])
			j++
		default:
			la, lb := a.chain[i], b.chain[j]
			c = la.class
			i, j = i+1, j+1
			st.Reduces += 2
			st.MergedDuplicates++
			for o = pairs[la.ent]; o >= 0 && ws.rec[o].key != lb.ent; o = ws.rec[o].next {
			}
			if o >= 0 {
				st.MergedDuplicates++
				break
			}
			ea, eb := &a.ents[la.ent], &b.ents[lb.ent]
			v := tensor.Vector(ws.vals.alloc(len(ea.value)))
			if err := op.ApplyTo(v, ea.value, eb.value); err != nil {
				return stream{}, st, fmt.Errorf("fafnir: reduce value: %w", err)
			}
			o = ws.emit(v, ws.or(ea.indices, eb.indices), lb.ent, pairs[la.ent])
			pairs[la.ent] = o
		}
		ws.owe(o, c)
	}
	return ws.finish(&st), st, nil
}

// selfMerge reduces co-query entries that sit in the *same* input stream.
//
// Cross-input comparison alone cannot combine two indices of one query that
// live on the same rank (the paper's own Fig. 6 example needs this: indices
// 44 and 94 both reside in table 4). Physically the leaf PE receives a
// rank's entries serially and can compare each arriving entry against the
// ones already buffered; selfMerge models the result of that serial pass.
//
// Every (entry, class) pair is chained behind its class in stream order, and
// each class's chain reduces into its first entry: an entry whose Indices the
// running union already covers is a duplicate read of the same data (a
// non-dedup stream) and is skipped, and one that only overlaps it is an error
// — the members must be disjoint, as every leaf stream's single-row entries
// are. A class that reduces nothing leaves with its first entry as it is.
// Classes whose results hold equal Indices leave as one output owing them all
// (found by topRow buckets), in the order of the least class each owes, and
// MergedDuplicates is charged one per class joining an output. The returned
// stats count those and the reduce actions; the arena rules are processPE's.
func (ws *workScratch) selfMerge(op tensor.ReduceOp, entries []denseEntry) (stream, PEStats, error) {
	var st PEStats
	ws.start()
	// Chain every (entry, class) pair behind its class in stream order; a
	// class's first pair is the one found before present has its bit.
	present := header.Bitset(ws.present[:ws.cls.k])
	clear(present)
	owner, next, top := ws.owner[:0], ws.next[:0], ws.top[:0]
	for pos := range entries {
		e := &entries[pos]
		top = append(top, topRow(e.indices))
		for i, w := range e.queries {
			seen := present[i]
			present[i] |= w
			for ; w != 0; w &= w - 1 {
				c := i<<6 | bits.TrailingZeros64(w)
				p := int32(len(owner))
				owner, next = append(owner, int32(pos)), append(next, -1)
				if seen&(w&-w) == 0 {
					ws.head[c] = p
				} else {
					next[ws.tail[c]] = p
				}
				ws.tail[c] = p
			}
		}
	}
	ws.owner, ws.next, ws.top = owner, next, top
	solo := ws.solo[:0] // stream position -> the output it leaves alone as
	for range entries {
		solo = append(solo, -1)
	}
	ws.solo = solo
	err := ws.reduceClasses(op, entries, present, &st)
	for _, r := range ws.rec {
		ws.byTop[r.key] = -1
	}
	if err != nil {
		return stream{}, st, err
	}
	return ws.finish(&st), st, nil
}

// reduceClasses is selfMerge's walk over the classes present, ascending. Its
// outputs' bucket records key them by topRow and chain them from byTop, which
// the caller restores.
func (ws *workScratch) reduceClasses(op tensor.ReduceOp, entries []denseEntry, present header.Bitset, st *PEStats) error {
	owner, next, top, solo := ws.owner, ws.next, ws.top, ws.solo
	for i, w := range present {
		for ; w != 0; w &= w - 1 {
			c := i<<6 | bits.TrailingZeros64(w)
			h := ws.head[c]
			pos := owner[h]
			covered, value, t, reduced := entries[pos].indices, entries[pos].value, top[pos], false
			for p := next[h]; p >= 0; p = next[p] {
				m := &entries[owner[p]]
				if covered.Covers(m.indices) {
					continue // the same entry again, or a duplicate read of the same data (non-dedup stream)
				}
				if covered.Intersects(m.indices) {
					return fmt.Errorf("fafnir: self-merge stream entries overlap at %v", ws.rows.AppendIndices(nil, m.indices))
				}
				// The class's first reduce takes its one working copy (value
				// and indices) in the arena; the rest accumulate into it.
				dst := value
				if !reduced {
					dst = ws.vals.alloc(len(value))
					covered = ws.or(covered, m.indices)
				} else {
					covered.Or(covered, m.indices)
				}
				if err := op.ApplyTo(dst, value, m.value); err != nil {
					return fmt.Errorf("fafnir: self-merge reduce: %w", err)
				}
				value, reduced = dst, true
				t = max(t, top[owner[p]])
				st.Reduces++
			}
			o := int32(-1)
			if !reduced {
				o = solo[pos]
			}
			if o < 0 {
				for o = ws.byTop[t]; o >= 0 && !ws.out[o].indices.Equal(covered); o = ws.rec[o].next {
				}
			}
			if o < 0 {
				o = ws.emit(value, covered, t, ws.byTop[t])
				ws.byTop[t] = o
			} else {
				st.MergedDuplicates++
			}
			if !reduced {
				solo[pos] = o
			}
			ws.owe(o, int32(c))
		}
	}
	return nil
}
