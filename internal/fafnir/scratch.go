package fafnir

import (
	"sync"

	"fafnir/internal/sim"
	"fafnir/internal/tensor"
)

// This file holds the owned working state of a lookup, so that a steady-state
// lookup allocates its result and output vectors and nothing else:
//
//   - a treeScratch (one per hardware batch in flight) comes from a
//     process-wide free list and goes back to it when its pass is released;
//   - a lookupScratch (the pass ring, its compiled plans, the timing slices)
//     is the engine's own, taken for the span of one TimedLookup;
//   - an OutputSlab holds the output vectors, and is the caller's: the
//     public TimedLookup allocates a fresh one per call, while the router's
//     shards keep one each and hand their partial pools up from it.
//
// Host concurrency lives in passSource (engine.go), which runs whole hardware
// batches side by side; inside a batch the PEs evaluate serially, bottom-up,
// on the goroutine that leased the scratch, so a scratch and its arena are
// single-owner and need no synchronization.

// treeScratch is the dense working state of one tree evaluation, indexed by
// PE ID (IDs are dense in [0, NumPEs)), plus the leaf-input staging buffers,
// the golden fold of the batch's queries and the arena every PE allocates
// from. It is leased for the whole span of a
// batch — leafInputs through runTree to resolve and trace emission — so
// arena-backed entries stay valid until the batch's results have been
// consumed, and it is pooled process-wide so concurrent hardware batches and
// exp sweep iterations (even across freshly built engines) reuse one
// steady-state working set.
type treeScratch struct {
	memo  []stream  // node ID -> its output stream
	proc  []PEStats // node ID -> processPE stats
	self  []PEStats // node ID -> leaf selfMerge stats (both inputs combined)
	perPE []PEStats // node ID -> folded per-PE stats (see runTree)

	in      [][]denseEntry  // rank -> staged leaf entries
	counts  []int           // rank -> planned access count
	staged  []StagedRow     // dense row -> the leaf read that filled it (see leafInputs)
	classOf []int32         // batch query -> its query class (see leafInputs)
	answer  []int32         // query class -> the root output answering it (see resolve)
	want    []tensor.Vector // batch query -> golden fold (see foldGolden)

	ws workScratch // the arenas and transient slices of every PE call
}

// freeScratch is the process-wide free list of released tree scratches, not
// a per-engine one: a scratch leased by any engine resizes to that engine's
// tree, so experiment sweeps that rebuild engines per configuration still hit
// a warm working set. It is a mutex-guarded stack rather than a sync.Pool: a
// pool parks a released scratch in the releasing P's private slot, where a
// flusher running on another P cannot take it and builds a fresh one, and it
// empties at every collection. The list holds at most the peak number of
// scratches ever leased at once.
var freeScratch struct {
	sync.Mutex
	list []*treeScratch
}

// getTreeScratch leases a scratch sized for the engine's tree.
func (e *Engine) getTreeScratch() *treeScratch {
	var sc *treeScratch
	freeScratch.Lock()
	if n := len(freeScratch.list); n > 0 {
		sc = freeScratch.list[n-1]
		freeScratch.list[n-1] = nil
		freeScratch.list = freeScratch.list[:n-1]
	}
	freeScratch.Unlock()
	if sc == nil {
		sc = &treeScratch{}
	}
	sc.ensure(len(e.flat), e.cfg.NumRanks)
	return sc
}

// ensure sizes the dense slots for a tree of numPEs nodes over numRanks
// ranks. Slots beyond a smaller previous tree were cleared at release, so
// growing within capacity is a reslice.
func (sc *treeScratch) ensure(numPEs, numRanks int) {
	if cap(sc.memo) < numPEs {
		sc.memo = make([]stream, numPEs)
		sc.proc = make([]PEStats, numPEs)
		sc.self = make([]PEStats, numPEs)
		sc.perPE = make([]PEStats, numPEs)
	} else {
		sc.memo = sc.memo[:numPEs]
		sc.proc = sc.proc[:numPEs]
		sc.self = sc.self[:numPEs]
		sc.perPE = sc.perPE[:numPEs]
	}
	if cap(sc.in) < numRanks {
		sc.in = make([][]denseEntry, numRanks)
		sc.counts = make([]int, numRanks)
	} else {
		sc.in = sc.in[:numRanks]
		sc.counts = sc.counts[:numRanks]
	}
}

// putTreeScratch releases a leased scratch: the arena recycles its chunks
// and all pointer-bearing slots are dropped (to full capacity, so a scratch
// reused by a smaller tree cannot pin a bigger tree's entries). Arena-backed
// entries obtained under the lease are invalid from here on.
func (e *Engine) putTreeScratch(sc *treeScratch) {
	clear(sc.memo[:cap(sc.memo)])
	clear(sc.in[:cap(sc.in)])
	sc.ws.reset()
	freeScratch.Lock()
	freeScratch.list = append(freeScratch.list, sc)
	freeScratch.Unlock()
}

// lookupScratch is the engine-owned state of one TimedLookup: the pass source
// with its ring and the plans its slots compile into, and the per-PE timing
// slices. An engine keeps one (Engine.spare) and a lookup takes it for its
// whole span; a second lookup running at the same time on the same engine
// finds none and builds its own, which the engine then keeps instead.
type lookupScratch struct {
	src       passSource
	leafReady []sim.MemCycle // leaf PE ID -> its last read's arrival (memory clock)
	ready     []sim.Cycle    // PE ID -> its completion (PE clock)
}

// takeLookupScratch leases the engine's lookup scratch, sized for its tree.
func (e *Engine) takeLookupScratch() *lookupScratch {
	ls := e.spare.Swap(nil)
	if ls == nil {
		n := len(e.flat)
		ls = &lookupScratch{leafReady: make([]sim.MemCycle, n), ready: make([]sim.Cycle, n)}
	}
	return ls
}

// OutputSlab is storage for a lookup's output vectors: one slot per query,
// each a fixed window of one float array, so writing n outputs costs no
// allocation once the slab has grown to n. Outputs written into a slab are
// valid until its next Reset; a caller that hands outputs on keeps the slab
// for as long as they are read. The zero value is empty and ready.
type OutputSlab struct {
	vecs []tensor.Vector
	vals []float32
	dim  int
}

// Reset sizes the slab for n vectors of dim elements, reusing its arrays
// when they are large enough, and returns the n slots, every one nil until
// it is written.
func (s *OutputSlab) Reset(n, dim int) []tensor.Vector {
	if cap(s.vecs) < n {
		s.vecs = make([]tensor.Vector, n)
	}
	if cap(s.vals) < n*dim {
		s.vals = make([]float32, n*dim)
	}
	s.vecs, s.vals, s.dim = s.vecs[:n], s.vals[:n*dim], dim
	clear(s.vecs)
	return s.vecs
}

// Window returns slot i's element window, holding whatever was last written
// there; the caller overwrites or clears it.
func (s *OutputSlab) Window(i int) tensor.Vector {
	return tensor.Vector(s.vals[i*s.dim : (i+1)*s.dim : (i+1)*s.dim])
}
