package fafnir

import (
	"sync"

	"fafnir/internal/tensor"
)

// This file holds the pooled working state of tree evaluation. Host
// concurrency lives one level up (engine.go's passSource runs whole hardware
// batches side by side); inside a batch the PEs evaluate serially, bottom-up,
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
	memo  [][]denseEntry // node ID -> post-merge outputs
	proc  []PEStats      // node ID -> processPE stats
	self  []PEStats      // node ID -> leaf selfMerge stats (both inputs combined)
	perPE []PEStats      // node ID -> folded per-PE stats (see runTree)

	in     [][]denseEntry  // rank -> staged leaf entries
	counts []int           // rank -> planned access count
	staged []StagedRow     // dense row -> the leaf read that filled it (see leafInputs)
	want   []tensor.Vector // batch query -> golden fold (see foldGolden)

	ws workScratch // the arenas and transient slices of every PE call
}

// treeScratchPool is process-wide, not per-engine: a scratch leased by any
// engine resizes to that engine's tree, so experiment sweeps that rebuild
// engines per configuration still hit a warm working set.
var treeScratchPool sync.Pool

// getTreeScratch leases a scratch sized for the engine's tree.
func (e *Engine) getTreeScratch() *treeScratch {
	sc, _ := treeScratchPool.Get().(*treeScratch)
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
		sc.memo = make([][]denseEntry, numPEs)
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
	treeScratchPool.Put(sc)
}
