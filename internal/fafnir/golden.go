package fafnir

import (
	"fmt"
	"math/bits"

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

// foldGolden folds every query of the pass's hardware batch with
// embedding.Query.Fold, the reference's one reduction, into accumulators
// carved from the scratch's value arena. A query's indices ascend and so do
// the dense rows of its QueryBits, so the fold's row reads walk the two in
// step. A row comes from a staged buffer only when VectorInto filled that
// buffer for exactly the row's global index; any other row is read from the
// store.
func foldGolden(sc *treeScratch, store *embedding.Store, plan *batch.Plan) ([]tensor.Vector, error) {
	dim := store.Dim()
	// The rows of the query being folded: word at of qbits, without the rows
	// already read, is w.
	var qbits header.Bitset
	var at int
	var w uint64
	row := func(idx header.Index) (tensor.Vector, error) {
		for w == 0 && at+1 < len(qbits) {
			at++
			w = qbits[at]
		}
		if w != 0 {
			s := &sc.staged[at<<6|bits.TrailingZeros64(w)]
			w &= w - 1
			if s.Row != nil && s.Index == idx {
				return s.Row, nil
			}
		}
		v := tensor.Vector(sc.ws.vals.alloc(dim))
		return v, store.VectorInto(idx, v)
	}
	sub := plan.Batch()
	want := sc.want[:0]
	for qi, q := range sub.Queries {
		qbits = plan.QueryBits(qi)
		at, w = 0, qbits[0]
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
// left unanswered is TimedLookup's to report.
func (e *Engine) checkGolden(got, want []tensor.Vector, qBase int) error {
	if e.GoldenCheckHook != nil {
		e.GoldenCheckHook(qBase, got, want)
	}
	for qi, w := range want {
		if got[qi] != nil && !got[qi].Equal(w) {
			return fmt.Errorf("fafnir: query %d mismatches the golden reference: %w", qBase+qi, fault.ErrInvariantViolated)
		}
	}
	return nil
}
