package fafnir

// This file holds the referee: the bitset PE the class-chain join (pe.go)
// replaced, kept as it ran so that tests can hold the join to it the way
// internal/oracle holds the engine's values to a reference. It finds each
// remaining set's partner with one hash probe of a setTable over the
// opposite input, has its merge unit (fold) group equal Indices sets with one
// hash pass and sort one member per group into canonical order (canon), and
// groups a leaf stream's (entry, class) pairs by class (byClass). Its outputs
// come in canonical Indices order; as sets, with their stats, they are the
// join's (TestPEMatchesReferee). Unlike the join it needs no class chain, so
// it also takes inputs the tree cannot produce (TestProcessPEUnmirroredReduce).

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"fafnir/internal/batch"
	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// referee is the bitset PE's working state: its transient slices, beside the
// arenas, row space and class table of the workScratch it runs on.
type referee struct {
	*workScratch

	raw    []denseEntry    // one PE call's pre-merge outputs
	pend   []tensor.Vector // processPE: raw position -> the partner value its reduce still owes (see fold)
	keys   []header.Bitset // indicesOf: the Indices of the entries being grouped or indexed
	ord    []uint64        // canon's output
	heads  []uint64        // group: the first position of every distinct set
	first  []header.Bitset // group: the set at every heads position
	next   []int32         // group, byClass: position -> the next position holding its set
	owner  []int32         // byClass: (entry, class) pair -> stream position
	class  []int32         // byClass: (entry, class) pair -> class
	chains []int32         // byClass: the first pair of every class present
	head   []int32         // byClass: class -> its first pair
	tail   []int32         // byClass: class -> its last pair, -1 between calls
	fwd    header.Bitset   // processPE: the classes an entry forwards
	probe  []uint64        // processPE: the opposite input's union, the probe key, the first pass's opposite union
	table  setTable        // processPE's partner index and group's hash pass
}

// single is a Queries field naming class c alone, in the arena.
func (ws *referee) single(c int) header.Bitset {
	qs := header.Bitset(ws.words.alloc(ws.cls.k))
	clear(qs)
	qs.Set(c)
	return qs
}

// newReferee runs the referee on ws, which begin has pointed at a batch.
func newReferee(ws *workScratch) *referee {
	n := len(ws.cls.rows)
	r := &referee{workScratch: ws, head: make([]int32, n), tail: make([]int32, n), fwd: make(header.Bitset, ws.cls.k)}
	for c := range r.tail {
		r.tail[c] = -1
	}
	return r
}

// TestPEMatchesReferee is the differential test of the class-chain join: on
// every PE of seeded lookups, selfMerge on each leaf rank stream and
// processPE on the inputs the tree gave it must give the referee's output set
// — Indices, owed classes and value bits — with identical PEStats, and every
// output stream's chain must link each class it owes to the entry owing it,
// classes ascending. An internal PE's referee runs on the join's child
// streams (as sets, its own, by induction). The lookups cover dedup and
// non-dedup batches, all four ops, leaf fan-in 1, 2 and 4 and odd leaf
// counts, a dark rank's reads remapped to its replica rank, and Fig. 6.
func TestPEMatchesReferee(t *testing.T) {
	store := embedding.MustStore(4096, 4, 3)
	var leaves, joins int
	check := func(t *testing.T, e *Engine, layout Placement, b embedding.Batch, dedup bool, remap map[header.Index]int) {
		t.Helper()
		sc := e.getTreeScratch()
		defer e.putTreeScratch(sc)
		in, err := e.leafInputs(sc, store, layout, batch.Compile(b, dedup), remap)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.evalTree(b.Op, in, sc); err != nil {
			t.Fatal(err)
		}
		ws := &sc.ws
		ref := newReferee(ws)
		for id := range e.flat {
			n := &e.flat[id]
			var inA, inB []denseEntry
			if n.leaf {
				var self PEStats
				for side, ranks := range [][]int{n.ranksA, n.ranksB} {
					rank := gatherRanks(ws, in, ranks)
					got, st, err := ws.selfMerge(b.Op, rank)
					if err != nil {
						t.Fatal(err)
					}
					want, wantSt, err := ref.selfMerge(b.Op, rank)
					if err != nil {
						t.Fatal(err)
					}
					matchReferee(t, fmt.Sprintf("PE %d input %c selfMerge", id, 'A'+side), ws, got, st, want, wantSt)
					self.Add(st)
					if side == 0 {
						inA = got.ents
					} else {
						inB = got.ents
					}
					leaves++
				}
				if self != sc.self[id] {
					t.Fatalf("PE %d: selfMerge stats %+v, in the tree %+v", id, self, sc.self[id])
				}
			} else {
				inA = sc.memo[n.left].ents
				if n.right >= 0 {
					inB = sc.memo[n.right].ents
				}
			}
			want, wantSt, err := ref.processPE(b.Op, inA, inB)
			if err != nil {
				t.Fatal(err)
			}
			matchReferee(t, fmt.Sprintf("PE %d processPE", id), ws, sc.memo[id], sc.proc[id], want, wantSt)
			joins++
		}
	}
	ops := []tensor.ReduceOp{tensor.OpSum, tensor.OpMean, tensor.OpMax, tensor.OpMin}
	for _, dedup := range []bool{true, false} {
		for _, op := range ops {
			t.Run(fmt.Sprintf("fig6/%v/dedup=%v", op, dedup), func(t *testing.T) {
				b := fig6Batch()
				b.Op = op
				check(t, smallEngine(t, 8, 2, 4, 4), tablePlacement{bytes: 16}, b, dedup, nil)
			})
		}
	}
	// Ranks and leaf fan-in: 8 leaves of one rank, 8 and 5 of two, 4 and 3
	// of four.
	for _, sh := range []struct{ ranks, fanIn int }{{8, 1}, {16, 2}, {10, 2}, {16, 4}, {12, 4}} {
		e := smallEngine(t, sh.ranks, sh.fanIn, 32, 4)
		layout := modPlacement{ranks: sh.ranks, bytes: 16}
		for oi, op := range ops {
			for _, dist := range []embedding.Distribution{embedding.Uniform, embedding.Zipf} {
				seed := int64(sh.ranks*10 + oi)
				gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
					NumQueries: 32, QuerySize: 12, Rows: 4096, Dist: dist, ZipfS: 1.3, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				b := gen.Batch(op)
				// A dark rank's reads served by its replica rank, as the
				// faulted read loop remaps them.
				dark := int(seed) % sh.ranks
				replica := map[header.Index]int{}
				for _, q := range b.Queries {
					for _, idx := range q.Indices {
						if layout.Rank(idx) == dark {
							replica[idx] = (dark + sh.ranks/2) % sh.ranks
						}
					}
				}
				for _, dedup := range []bool{true, false} {
					for _, remap := range []map[header.Index]int{nil, replica} {
						name := fmt.Sprintf("ranks%d/fanin%d/%v/%v/dedup=%v/remapped=%v", sh.ranks, sh.fanIn, op, dist, dedup, remap != nil)
						t.Run(name, func(t *testing.T) { check(t, e, layout, b, dedup, remap) })
					}
				}
			}
		}
	}
	t.Logf("%d leaf streams self-merged, %d PEs joined", leaves, joins)
}

// matchReferee fails t unless the join's stream got, with stats st, holds
// the referee's outputs want as a set, with stats wantSt, and its chain links
// every class it owes, ascending, to the one entry owing it.
func matchReferee(t *testing.T, what string, ws *workScratch, got stream, st PEStats, want []denseEntry, wantSt PEStats) {
	t.Helper()
	if st != wantSt {
		t.Fatalf("%s: stats %+v, referee %+v", what, st, wantSt)
	}
	set := func(out []denseEntry) []string {
		var lines []string
		for _, e := range out {
			line := fmt.Sprintf("%x %x", e.indices, e.queries)
			for _, v := range e.value {
				line += fmt.Sprintf(" %08x", math.Float32bits(v))
			}
			lines = append(lines, line)
		}
		slices.Sort(lines)
		return lines
	}
	if g, w := set(got.ents), set(want); !slices.Equal(g, w) {
		t.Fatalf("%s: outputs\n%s\nreferee\n%s", what, strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
	links := 0
	for i := range got.ents {
		links += got.ents[i].queries.Len()
	}
	if len(got.chain) != links {
		t.Fatalf("%s: %d links for %d owed classes", what, len(got.chain), links)
	}
	for i, l := range got.chain {
		if !got.ents[l.ent].owes(int(l.class)) || i > 0 && l.class <= got.chain[i-1].class {
			t.Fatalf("%s: chain %v does not list the owed classes ascending", what, got.chain)
		}
	}
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
func (ws *referee) fold(op tensor.ReduceOp, raw []denseEntry, pend []tensor.Vector, stats *PEStats) ([]denseEntry, error) {
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
func (ws *referee) processPE(op tensor.ReduceOp, inA, inB []denseEntry) ([]denseEntry, PEStats, error) {
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
					raw = append(raw, denseEntry{value: e.value, indices: ws.or(e.indices, best.indices), queries: ws.single(c)})
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
func (ws *referee) index(in []denseEntry) {
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
func (ws *referee) indicesOf(in []denseEntry) []header.Bitset {
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
func (ws *referee) partner(e *denseEntry, c int, in []denseEntry) *denseEntry {
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
func (ws *referee) mirrored(e *denseEntry, c int, best *denseEntry) bool {
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
func (ws *referee) selfMerge(op tensor.ReduceOp, entries []denseEntry) ([]denseEntry, PEStats, error) {
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
			raw = append(raw, denseEntry{value: value, indices: covered, queries: ws.single(c)})
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
// class's pairs in pair order, -1 ending the chain. These are exactly the
// groups, and the chains, group would make of the pairs' full queries, without
// hashing or sorting a set; group lists them in the canonical order of the
// classes' rows instead. The result is valid until the next byClass, group or
// canon.
func (ws *referee) byClass(entries []denseEntry) (heads, next []int32) {
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

// setTable indexes positions by equal set: an open-addressing hash table over
// a set's words whose slots hold a position (plus one; 0 is a free slot) of
// each distinct set it has seen. The caller decides which position a slot
// keeps; any holder will do for finding the set again, since they are equal.
type setTable struct {
	slots []int32
	shift uint // 64 - log2(len(slots)): a hash's top bits are its home slot
}

// reset empties the table and sizes it for n distinct sets at most half full,
// reusing the slots of earlier runs.
func (t *setTable) reset(n int) {
	size := 2 << bits.Len(uint(max(n, 1)-1))
	if cap(t.slots) < size {
		t.slots = make([]int32, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.shift = uint(65 - bits.Len(uint(size)))
}

// find returns the slot of s: the one holding a position whose set in sets
// equals s, or the free slot where s belongs.
func (t *setTable) find(s header.Bitset, sets []header.Bitset) *int32 {
	mask := uint64(len(t.slots) - 1)
	for i := hashSet(s) >> t.shift; ; i = (i + 1) & mask {
		if p := t.slots[i]; p == 0 || sets[p-1].Equal(s) {
			return &t.slots[i]
		}
	}
}

// hashSet mixes every word of s into the top bits of one word (Fibonacci
// hashing), where setTable takes its home slot from.
func hashSet(s header.Bitset) uint64 {
	var h uint64
	for _, w := range s {
		h = (h ^ w) * 0x9e3779b97f4a7c15
	}
	return h
}

// group is canon over sets with its groups delimited: heads holds each
// distinct set's first position, in canonical order, and next chains a
// group's members in position order from its head, -1 ending the chain.
// Flattened, it is exactly canon's order (the same groups in the same order,
// members in the same order), but a hash pass finds the groups and canon
// sorts only their heads. The result is valid until the next group or canon.
func (ws *referee) group(sets []header.Bitset) (heads []uint64, next []int32) {
	ws.table.reset(len(sets))
	pos, first := ws.heads[:0], ws.first[:0]
	next = slices.Grow(ws.next[:0], len(sets))[:len(sets)]
	for i, s := range sets {
		next[i] = -1
		// The slot keeps the set's latest position: the chain's tail.
		slot := ws.table.find(s, sets)
		if *slot == 0 {
			pos, first = append(pos, uint64(i)), append(first, s)
		} else {
			next[*slot-1] = int32(i)
		}
		*slot = int32(i) + 1
	}
	ws.heads, ws.first, ws.next = pos, first, next
	heads = ws.canon(first)
	for i, h := range heads {
		heads[i] = pos[h]
	}
	return heads, next
}

// canon returns the positions of sets in the canonical order of the sets
// (header.Bitset.Compare), with equal sets in position order. The merge unit
// needs only that equal sets end up adjacent; any total order of the bits does
// that, and the store's integer-valued rows make every fold exact in any
// order, so the order is chosen for speed alone. Each set is packed into one
// word, its position below as much of its SortKey as fits, so a plain integer
// sort decides most comparisons; only runs that tie on the key prefix take the
// full comparator. The position tiebreak makes the order total, so the
// unstable sorts have one possible outcome. The result is valid until the next
// canon or group.
func (ws *referee) canon(sets []header.Bitset) []uint64 {
	n := len(sets)
	posBits := bits.Len(uint(n))
	// Both members of a SortKey are row IDs below len(rows), or MaxUint32 for
	// none; repacked in rowBits each, with none as the largest, they keep
	// every bit when the rows are few enough.
	rowBits := bits.Len(uint(len(ws.rows)))
	none := uint64(1)<<rowBits - 1
	ord := ws.ord[:0]
	for i, s := range sets {
		key := s.SortKey()
		if 2*rowBits+posBits <= 64 {
			key = min(key>>32, none)<<rowBits | min(key&math.MaxUint32, none)
		} else {
			key >>= posBits
		}
		ord = append(ord, key<<posBits|uint64(i))
	}
	ws.ord = ord
	slices.Sort(ord)
	pos := uint64(1)<<posBits - 1
	for i, j := 0, 0; i < n; i = j {
		for j = i + 1; j < n && ord[j]&^pos == ord[i]&^pos; j++ {
		}
		if j > i+1 {
			slices.SortFunc(ord[i:j], func(a, b uint64) int {
				if c := sets[a&pos].Compare(sets[b&pos]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		}
	}
	for i := range ord {
		ord[i] &= pos
	}
	return ord
}
