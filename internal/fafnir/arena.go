package fafnir

// This file holds the arena layer of the hot path: typed bump allocators whose
// chunks are retained across runs, so a steady-state tree pass allocates
// nothing — a reduce action's vector clone, its header fields and a stream's
// class chain are carved off the current chunk — and releasing the scratch
// recycles every chunk at once instead of feeding the garbage collector.
//
// Arena-backed slices are only valid while the owning scratch is leased
// (getTreeScratch/putTreeScratch in scratch.go); the engine releases a
// batch's scratch only after resolve and trace emission have consumed the
// root outputs.

import (
	"slices"

	"fafnir/internal/header"
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
// allocates from, and reusable transient slices for the PEs. A treeScratch
// embeds one and a single goroutine evaluates the whole tree on it, so no
// synchronization is needed on the allocation path.
type workScratch struct {
	// rows and k (rows.Words()) come from the leaf inputs being evaluated,
	// not from whatever this scratch ran last, and so does cls: begin sets
	// them.
	rows header.Dense
	k    int
	cls  queryClasses

	ents  bump[denseEntry] // PE output slices and leaf-entry buffers
	vals  bump[float32]    // reduced vector values
	words bump[uint64]     // header fields: unions, Queries fields, leaf sets
	links bump[link]       // PE output class chains

	out       []denseEntry    // one PE call's outputs, until finish copies them out
	rec       []bucketRec     // out position -> its bucket record (see emit)
	chain     []link          // one PE call's class chain, until finish copies it out
	slots     []int32         // processPE: input entry -> its forward output; A entry -> its latest pair output
	owner     []int32         // selfMerge: (entry, class) pair -> stream position
	next      []int32         // selfMerge: pair -> the next pair of its class, -1 ending the chain
	top       []int32         // selfMerge: stream position -> topRow of its Indices
	solo      []int32         // selfMerge: stream position -> the output it leaves alone as, or -1
	head      []int32         // selfMerge: class -> its first pair
	tail      []int32         // selfMerge: class -> its last pair
	present   []uint64        // selfMerge: the classes the stream owes
	byTop     []int32         // classify, selfMerge: topRow -> the latest class or output there, -1 between calls
	keys      []header.Bitset // leafInputs: the query rows
	classRows []header.Bitset // classify: class -> its rows
	classPrev []int32         // classify: class -> the class before it in its byTop bucket
}

// bucketRec is an output's entry in a PE call's search structure: in
// selfMerge its topRow and the previous output with that topRow, in
// processPE its B partner and its A entry's previous pair output (-1 for a
// forward).
type bucketRec struct{ key, next int32 }

// begin points the scratch at the dense row space and the query classes of
// the batch it is about to evaluate.
func (ws *workScratch) begin(rows header.Dense, cls queryClasses) {
	ws.rows, ws.k, ws.cls = rows, rows.Words(), cls
	n := len(cls.rows)
	ws.head = slices.Grow(ws.head[:0], n)[:n]
	ws.tail = slices.Grow(ws.tail[:0], n)[:n]
	ws.present = slices.Grow(ws.present[:0], cls.k)[:cls.k]
	ws.byTop = negs(ws.byTop, 64*ws.k+1)
}

// reset recycles the arenas and transient slices for the next batch. Entry
// chunks hold pointers and are zeroed; the float, word and link chunks are
// pointer-free, and everything they back is reachable only through the
// cleared chunks (or through keys and classRows, which point nowhere else),
// so they recycle without the memclr.
func (ws *workScratch) reset() {
	ws.rows, ws.cls = nil, queryClasses{}
	ws.ents.reset(true)
	ws.vals.reset(false)
	ws.words.reset(false)
	ws.links.reset(false)
	clear(ws.out[:cap(ws.out)])
	ws.out = ws.out[:0]
}

// or is the union of s and t in the arena.
func (ws *workScratch) or(s, t header.Bitset) header.Bitset {
	out := header.Bitset(ws.words.alloc(ws.k))
	out.Or(s, t)
	return out
}
