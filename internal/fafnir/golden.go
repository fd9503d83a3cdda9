package fafnir

import (
	"fmt"
	"slices"

	"fafnir/internal/batch"
	"fafnir/internal/embedding"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// This file holds the engine's golden check. The host rearrangement reads each
// unique row of a hardware batch once (leafInputs); the reference every
// output is checked against is folded from those same staged rows, on the
// goroutine that computes the pass and before the tree runs, and the consumer
// compares each resolved output with it. The store holds integer-valued
// float32, so the tree's sums are exact in any association order and the
// comparison can be exact.

// GoldenCheckHook, when non-nil, is called on the consumer goroutine with each
// hardware batch's first query offset, its resolved outputs and the reference
// fold, just before they are compared. It lets tests in other packages
// corrupt an output, or inspect the fold, and see the check fire; nothing in
// the program sets it.
var GoldenCheckHook func(start int, got, want []tensor.Vector)

// stagedRow is one row leafInputs read: the buffer store.VectorInto filled and
// the global index it filled it for.
type stagedRow struct {
	idx header.Index
	v   tensor.Vector
}

// foldGolden folds every query of the pass's hardware batch with
// embedding.Query.Fold, the reference's one reduction, into accumulators
// carved from the scratch's value arena. A row comes from a staged buffer
// only when VectorInto filled that buffer for exactly the row's global index;
// any other row is read from the store.
func foldGolden(sc *treeScratch, store *embedding.Store, plan *batch.Plan) ([]tensor.Vector, error) {
	dim := store.Dim()
	row := func(idx header.Index) (tensor.Vector, error) {
		if r, ok := slices.BinarySearch(plan.Rows, idx); ok && sc.staged[r].v != nil && sc.staged[r].idx == idx {
			return sc.staged[r].v, nil
		}
		v := tensor.Vector(sc.ws.vals.alloc(dim))
		return v, store.VectorInto(idx, v)
	}
	sub := plan.Batch()
	want := sc.want[:0]
	for qi, q := range sub.Queries {
		acc := tensor.Vector(sc.ws.vals.alloc(dim))
		if err := q.Fold(sub.Op, acc, row); err != nil {
			return nil, fmt.Errorf("fafnir: golden of query %d: %w", qi, err)
		}
		want = append(want, acc)
	}
	sc.want = want
	return want, nil
}

// checkGolden is the engine's second always-on invariant, beside root
// conservation: every resolved output of a hardware batch (got, starting at
// batch query qBase) must equal its pass's reference fold exactly. A query
// left unanswered is checkCovered's to report.
func checkGolden(got, want []tensor.Vector, qBase int) error {
	if GoldenCheckHook != nil {
		GoldenCheckHook(qBase, got, want)
	}
	for qi, w := range want {
		if got[qi] != nil && !got[qi].Equal(w) {
			return fmt.Errorf("fafnir: query %d mismatches the golden reference: %w", qBase+qi, fault.ErrInvariantViolated)
		}
	}
	return nil
}
