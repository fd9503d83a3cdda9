package fafnir

// This file holds the arena layer of the hot path: typed bump allocators whose
// chunks are retained across runs, so a steady-state tree pass allocates
// nothing — a reduce action's vector clone and its two header fields are
// carved off the current chunk — and releasing the scratch recycles every
// chunk at once instead of feeding the garbage collector. It also holds the
// one sort the merge unit needs (canon): set algebra on header.Bitset words is
// a handful of word operations, which leaves canonical ordering as the PE's
// dominant host cost.
//
// Arena-backed slices are only valid while the owning scratch is leased
// (getTreeScratch/putTreeScratch in scratch.go); the engine releases a
// batch's scratch only after resolve and trace emission have consumed the
// root outputs.

import (
	"cmp"
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
	// not from whatever this scratch ran last: begin sets them.
	rows header.Dense
	k    int

	ents  bump[denseEntry] // PE output slices and leaf-entry buffers
	vals  bump[float32]    // reduced vector values
	words bump[uint64]     // header fields: unions, minus results, merged Queries, leaf sets

	raw   []denseEntry    // one PE call's pre-merge outputs
	sets  []header.Bitset // selfMerge: the full query of every (entry, remaining-set) pair
	ord   []uint64        // canon's output
	sigs  []uint64        // processPE: header.Bitset.Sig of every input entry's indices
	owner []int32         // selfMerge: (entry, remaining-set) pair -> stream position
}

// begin points the scratch at the dense row space of the batch it is about
// to evaluate.
func (ws *workScratch) begin(rows header.Dense) { ws.rows, ws.k = rows, rows.Words() }

// reset recycles the arenas and transient slices for the next batch. Entry
// chunks hold pointers and are zeroed; the float and word chunks are
// pointer-free, and everything they back is reachable only through the
// cleared chunks (or through sets, which points nowhere else), so they
// recycle without the memclr.
func (ws *workScratch) reset() {
	ws.rows = nil
	ws.ents.reset(true)
	ws.vals.reset(false)
	ws.words.reset(false)
	clear(ws.raw[:cap(ws.raw)])
	ws.raw = ws.raw[:0]
}

// cloneVec copies v into the value arena (the reduce action's working copy).
func (ws *workScratch) cloneVec(v tensor.Vector) tensor.Vector {
	out := ws.vals.alloc(len(v))
	copy(out, v)
	return out
}

// or is the union of s and t in the arena.
func (ws *workScratch) or(s, t header.Bitset) header.Bitset {
	out := header.Bitset(ws.words.alloc(ws.k))
	out.Or(s, t)
	return out
}

// andNot is s without t's members in the arena.
func (ws *workScratch) andNot(s, t header.Bitset) header.Bitset {
	out := header.Bitset(ws.words.alloc(ws.k))
	out.AndNot(s, t)
	return out
}

// canon returns the positions 0..n-1 in the canonical order of the sets found
// there (header.Bitset.Compare), with equal sets in position order. The merge
// unit needs only that equal sets end up adjacent; any total order of the bits
// does that, and the store's integer-valued rows make every fold exact in any
// order, so the order is chosen for speed alone. Each set is packed into one
// word, its position below as much of its SortKey as fits, so a plain integer
// sort decides nearly every comparison; only runs that tie on the key prefix
// (equal sets, mostly) take the full comparator. The position tiebreak makes
// the order total, so the unstable sorts have one possible outcome. The result
// is valid until the next canon.
func (ws *workScratch) canon(n int, set func(pos uint64) header.Bitset) []uint64 {
	posBits := bits.Len(uint(n))
	ord := ws.ord[:0]
	for i := uint64(0); i < uint64(n); i++ {
		ord = append(ord, set(i).SortKey()>>posBits<<posBits|i)
	}
	ws.ord = ord
	slices.Sort(ord)
	pos := uint64(1)<<posBits - 1
	for i, j := 0, 0; i < n; i = j {
		for j = i + 1; j < n && ord[j]&^pos == ord[i]&^pos; j++ {
		}
		if j > i+1 {
			slices.SortFunc(ord[i:j], func(a, b uint64) int {
				if c := set(a & pos).Compare(set(b & pos)); c != 0 {
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
