package fafnir

// This file holds the arena layer of the hot path. One tree evaluation used
// to perform tens of thousands of small heap allocations — a vector clone,
// an index-set union, a one-element Queries slice per reduce action — and the
// end-to-end sweeps were allocation-bound because of it. The arena replaces
// all of that with typed bump allocators whose chunks are retained across
// runs: a steady-state tree pass allocates nothing, and releasing the scratch
// recycles every chunk at once instead of feeding the garbage collector.
//
// Arena-backed slices are only valid while the owning scratch is leased
// (getTreeScratch/putTreeScratch in scratch.go); the engine releases a
// batch's scratch only after resolve and trace emission have consumed the
// root outputs. The exported ProcessPE/SelfMerge wrappers use a fresh,
// never-recycled scratch, so their results live as long as the caller keeps
// them — exactly like the old heap-allocating implementation.

import (
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

// selfPair is one membership record of SelfMerge's grouping pass: the full
// query (the union of an entry's indices and one of its remaining-sets) and
// the entry's position in the input stream.
type selfPair struct {
	full   header.IndexSet
	member int
}

// workScratch is the working set of one tree evaluation: the typed arenas
// every PE invocation allocates from, plus reusable transient slices for the
// merge unit. A treeScratch embeds one and a single goroutine evaluates the
// whole tree on it, so no synchronization is needed on the allocation path.
type workScratch struct {
	ents bump[Entry]           // PE output slices and leaf-entry buffers
	vals bump[float32]         // reduced vector values
	idx  bump[header.Index]    // index sets (unions, minus results, leaf singletons)
	qs   bump[header.IndexSet] // Queries field slices

	raw     []Entry    // one PE call's pre-merge outputs
	pairs   []selfPair // SelfMerge grouping records
	members []int      // one SelfMerge group's member positions
	order   []int32    // sort permutation (fold and selfMerge sort positions, not structs)
}

func newWorkScratch() *workScratch { return &workScratch{} }

// reset recycles the arenas and transient slices for the next batch. Entry
// and Queries chunks hold pointers and are zeroed; the float and index chunks
// are pointer-free, and everything they back is reachable only through the
// cleared chunks, so they recycle without the memclr.
func (ws *workScratch) reset() {
	ws.ents.reset(true)
	ws.qs.reset(true)
	ws.vals.reset(false)
	ws.idx.reset(false)
	clear(ws.raw[:cap(ws.raw)])
	ws.raw = ws.raw[:0]
	clear(ws.pairs[:cap(ws.pairs)])
	ws.pairs = ws.pairs[:0]
	ws.members = ws.members[:0]
	ws.order = ws.order[:0]
}

// cloneVec copies v into the value arena (the reduce action's working copy).
func (ws *workScratch) cloneVec(v tensor.Vector) tensor.Vector {
	out := ws.vals.alloc(len(v))
	copy(out, v)
	return out
}

// single builds the one-element index set of a leaf read.
func (ws *workScratch) single(x header.Index) header.IndexSet {
	s := ws.idx.alloc(1)
	s[0] = x
	return s
}

// union is IndexSet.Union into the arena. When one side is empty the other
// is returned as-is — index sets are immutable in flight, so sharing is safe
// and matches the content the allocating implementation produced.
func (ws *workScratch) union(s, t header.IndexSet) header.IndexSet {
	if len(s) == 0 {
		return t
	}
	if len(t) == 0 {
		return s
	}
	out := ws.idx.alloc(len(s) + len(t))
	k, i, j := 0, 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out[k] = s[i]
			i++
		case s[i] > t[j]:
			out[k] = t[j]
			j++
		default:
			out[k] = s[i]
			i++
			j++
		}
		k++
	}
	k += copy(out[k:], s[i:])
	k += copy(out[k:], t[j:])
	return out[:k]
}

// minus is IndexSet.Minus into the arena, preserving the nil-for-empty
// convention of the allocating implementation.
func (ws *workScratch) minus(s, t header.IndexSet) header.IndexSet {
	if len(s) == 0 {
		return nil
	}
	if len(t) == 0 {
		return s
	}
	out := ws.idx.alloc(len(s))[:0]
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j < len(t) && t[j] == x {
			continue
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// qset1 builds a one-element Queries slice. The set itself is shared, never
// copied: headers are immutable in flight.
func (ws *workScratch) qset1(q header.IndexSet) []header.IndexSet {
	s := ws.qs.alloc(1)
	s[0] = q
	return s
}
