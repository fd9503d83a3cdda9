package fafnir

import (
	"fmt"

	"fafnir/internal/tensor"
)

// flatPE is one node of the arena-flattened tree: the dense, pointer-free
// mirror of PENode that the hot path iterates. Child and stats slots are all
// plain indices into engine- or scratch-owned slices, so evaluation touches
// contiguous records instead of chasing *PENode pointers.
type flatPE struct {
	ranksA, ranksB []int // leaf rank assignments (aliases PENode's slices)

	left, right int32 // child node IDs, -1 if absent
	level       int32 // construction level (carried-up nodes keep their own)
	leaf        bool
	kind        NodeKind
}

// flatten builds the dense mirror of t, indexed by PENode.ID. Construction
// order (t.all) is ID order with levels non-decreasing — children always
// precede parents — which tree evaluation, the timing walk, and the stats
// fold all rely on.
func flatten(t *Tree) []flatPE {
	fl := make([]flatPE, t.NumPEs())
	for _, n := range t.all {
		f := &fl[n.ID]
		f.left, f.right = -1, -1
		if n.Left != nil {
			f.left = int32(n.Left.ID)
		}
		if n.Right != nil {
			f.right = int32(n.Right.ID)
		}
		f.level = int32(n.Level)
		f.ranksA, f.ranksB = n.RanksA, n.RanksB
		f.leaf = n.IsLeaf()
		f.kind = n.Kind
	}
	return fl
}

// evalTree evaluates every PE bottom-up: flat is in construction order, so
// each node's children have already left their outputs in the scratch's memo
// slots. The hardware's PEs fire asynchronously; that lives in the cycle
// model (treeTiming), not in the host's evaluation order.
func (e *Engine) evalTree(op tensor.ReduceOp, in rankEntries, sc *treeScratch) error {
	// The leaves may have been staged on another scratch; their row space
	// and query classes travel with them.
	sc.ws.begin(in.rows, in.classes)
	for i := range e.flat {
		if err := e.evalFlatNode(op, int32(i), in, sc); err != nil {
			return err
		}
	}
	return nil
}

// evalFlatNode evaluates one PE: leaves gather and self-merge their ranks'
// entries, internal nodes join their children's memoized outputs. The node's
// results land in the scratch's dense slots and its allocations in the
// scratch's arena.
func (e *Engine) evalFlatNode(op tensor.ReduceOp, id int32, in rankEntries, sc *treeScratch) error {
	n := &e.flat[id]
	var inA, inB stream
	if n.leaf {
		// Serially merge co-query entries arriving on the same input
		// stream (see selfMerge); required whenever a query holds two
		// indices on one rank.
		var stA, stB PEStats
		var err error
		if inA, stA, err = sc.ws.selfMerge(op, gatherRanks(&sc.ws, in, n.ranksA)); err != nil {
			return fmt.Errorf("fafnir: PE %d input A: %w", id, err)
		}
		if inB, stB, err = sc.ws.selfMerge(op, gatherRanks(&sc.ws, in, n.ranksB)); err != nil {
			return fmt.Errorf("fafnir: PE %d input B: %w", id, err)
		}
		stA.Add(stB)
		sc.self[id] = stA
	} else {
		if n.left >= 0 {
			inA = sc.memo[n.left]
		}
		if n.right >= 0 {
			inB = sc.memo[n.right]
		}
	}
	out, st, err := sc.ws.processPE(op, inA, inB)
	if err != nil {
		return fmt.Errorf("fafnir: PE %d: %w", id, err)
	}
	sc.memo[id] = out
	sc.proc[id] = st
	return nil
}

// gatherRanks collects the leaf entries of the given ranks. The single-rank
// case (the paper's 1PE:2R geometry) aliases the per-rank slice directly —
// entries are immutable in flight, so no copy is needed.
func gatherRanks(ws *workScratch, in rankEntries, ranks []int) []denseEntry {
	switch len(ranks) {
	case 0:
		return nil
	case 1:
		return in.byRank[ranks[0]]
	}
	n := 0
	for _, r := range ranks {
		n += len(in.byRank[r])
	}
	if n == 0 {
		return nil
	}
	out := ws.ents.alloc(n)[:0]
	for _, r := range ranks {
		out = append(out, in.byRank[r]...)
	}
	return out
}
