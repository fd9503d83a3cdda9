package fafnir

// This file holds the arena layer of the hot path: typed bump allocators whose
// chunks are retained across runs, so a steady-state tree pass allocates
// nothing — a reduce action's vector clone and its two header fields are
// carved off the current chunk — and releasing the scratch recycles every
// chunk at once instead of feeding the garbage collector. It also holds the
// merge unit's ordering: setTable, one hash table that finds the positions
// holding an equal set, serves both the PE's partner probe and group, which
// brings equal sets together so that canon sorts only one member per group.
//
// Arena-backed slices are only valid while the owning scratch is leased
// (getTreeScratch/putTreeScratch in scratch.go); the engine releases a
// batch's scratch only after resolve and trace emission have consumed the
// root outputs.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// bumpMinChunk is the smallest chunk a bump allocator requests, in elements.
const bumpMinChunk = 256

// bump is a typed bump (arena) allocator. alloc carves slices off the current
// chunk; reset returns every chunk to a free list for the next run, so growth
// happens only until the allocator has seen its peak demand.
type bump[T any] struct {
	cur  []T   // current chunk; len is the bump cursor
	used [][]T // exhausted chunks of the current run
	free [][]T // retained chunks available for reuse
}

// alloc returns a fresh slice of n elements with capacity exactly n, so
// callers can use append within the reservation but never beyond it.
func (b *bump[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if len(b.cur)+n > cap(b.cur) {
		b.grow(n)
	}
	off := len(b.cur)
	b.cur = b.cur[:off+n]
	return b.cur[off : off+n : off+n]
}

// grow retires the current chunk and installs one with room for n elements,
// preferring a retained chunk over a fresh allocation.
func (b *bump[T]) grow(n int) {
	if cap(b.cur) > 0 {
		b.used = append(b.used, b.cur)
	}
	for i := len(b.free) - 1; i >= 0; i-- {
		if cap(b.free[i]) >= n {
			b.cur = b.free[i]
			b.free[i] = b.free[len(b.free)-1]
			b.free[len(b.free)-1] = nil
			b.free = b.free[:len(b.free)-1]
			return
		}
	}
	size := 2 * cap(b.cur)
	if size < bumpMinChunk {
		size = bumpMinChunk
	}
	if size < n {
		size = n
	}
	b.cur = make([]T, 0, size)
}

// reset recycles every chunk for the next run. clearMem zeroes the used
// prefix first — required for element types that hold pointers, so a pooled
// arena does not pin the previous batch's vectors and plans.
func (b *bump[T]) reset(clearMem bool) {
	if cap(b.cur) > 0 {
		if clearMem {
			clear(b.cur)
		}
		b.free = append(b.free, b.cur[:0])
		b.cur = nil
	}
	for i, c := range b.used {
		if clearMem {
			clear(c)
		}
		b.free = append(b.free, c[:0])
		b.used[i] = nil
	}
	b.used = b.used[:0]
}

// workScratch is the working set of one tree evaluation: the dense row space
// of the hardware batch being evaluated, the typed arenas every PE invocation
// allocates from, and reusable transient slices for the merge unit. A
// treeScratch embeds one and a single goroutine evaluates the whole tree on
// it, so no synchronization is needed on the allocation path.
type workScratch struct {
	// rows and k (rows.Words()) come from the leaf inputs being evaluated,
	// not from whatever this scratch ran last, and so does cls: begin sets
	// them.
	rows header.Dense
	k    int
	cls  queryClasses

	ents  bump[denseEntry] // PE output slices and leaf-entry buffers
	vals  bump[float32]    // reduced vector values
	words bump[uint64]     // header fields: unions, merged Queries, leaf sets, singleton classes

	raw       []denseEntry    // one PE call's pre-merge outputs
	pend      []tensor.Vector // processPE: raw position -> the partner value its reduce still owes (see fold)
	keys      []header.Bitset // indicesOf: the Indices of the entries being grouped or indexed; leafInputs: the query rows
	ord       []uint64        // canon's output
	heads     []uint64        // group: the first position of every distinct set
	first     []header.Bitset // group: the set at every heads position
	next      []int32         // group, byClass: position -> the next position holding its set
	owner     []int32         // byClass: (entry, class) pair -> stream position
	class     []int32         // byClass: (entry, class) pair -> class
	chains    []int32         // byClass: the first pair of every class present
	head      []int32         // byClass: class -> its first pair
	tail      []int32         // byClass: class -> its last pair, -1 between calls
	fwd       header.Bitset   // processPE: the classes an entry forwards
	probe     []uint64        // processPE: the opposite input's union, the probe key, the first pass's opposite union
	classRows []header.Bitset // classify: class -> its rows
	table     setTable        // processPE's partner index and group's hash pass
}

// begin points the scratch at the dense row space and the query classes of
// the batch it is about to evaluate.
func (ws *workScratch) begin(rows header.Dense, cls queryClasses) {
	ws.rows, ws.k, ws.cls = rows, rows.Words(), cls
	n := len(cls.rows)
	ws.head = slices.Grow(ws.head[:0], n)[:n]
	ws.tail = slices.Grow(ws.tail[:0], n)[:n]
	for c := range ws.tail {
		ws.tail[c] = -1
	}
	ws.fwd = slices.Grow(ws.fwd[:0], cls.k)[:cls.k]
}

// reset recycles the arenas and transient slices for the next batch. Entry
// chunks hold pointers and are zeroed; the float and word chunks are
// pointer-free, and everything they back is reachable only through the
// cleared chunks (or through keys, first and classRows, which point nowhere
// else), so they recycle without the memclr.
func (ws *workScratch) reset() {
	ws.rows, ws.cls = nil, queryClasses{}
	ws.ents.reset(true)
	ws.vals.reset(false)
	ws.words.reset(false)
	clear(ws.raw[:cap(ws.raw)])
	clear(ws.pend[:cap(ws.pend)])
	ws.raw, ws.pend = ws.raw[:0], ws.pend[:0]
}

// or is the union of s and t in the arena.
func (ws *workScratch) or(s, t header.Bitset) header.Bitset {
	out := header.Bitset(ws.words.alloc(ws.k))
	out.Or(s, t)
	return out
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
func (ws *workScratch) group(sets []header.Bitset) (heads []uint64, next []int32) {
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
func (ws *workScratch) canon(sets []header.Bitset) []uint64 {
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
