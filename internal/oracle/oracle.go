// Package oracle is the repository's independent referee: a deliberately
// naive reference model of sparse gathering plus a conformance harness that
// replays seeded random workloads through every engine (Fafnir, RecNMP,
// TensorDIMM, the no-NDP host baseline) and checks them against the model and
// against each other.
//
// The reduction tree's own invariant checker lives inside the engine it
// guards; a bug in the shared header semantics could corrupt outputs and the
// checker alike. This package recomputes what the hardware model *should*
// produce from first principles — a map-based gather and a per-query pooling
// loop, no tree, no headers, no timing, no buffer reuse — and shares no code
// with the engines' reduction paths. Anything the two disagree on is a bug in
// one of them.
//
// Outputs are compared bit-for-bit, not within a tolerance. That is sound
// because the synthetic store (package embedding) holds small-integer values:
// float32 pooling of integers in [-8, 8) is exact at every association order
// the tree can produce, so sum, min, max, and mean (an exact sum scaled once
// by 1/n at the root) must agree to the last bit with the naive loop.
//
// Every check is driven by a seeded workload (GenWorkload); every failure
// message carries the seed, so any red run reproduces with a one-line test
// filter. See docs/ARCHITECTURE.md §10.
package oracle

import (
	"fmt"
	"math"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/sim"
	"fafnir/internal/tensor"
)

// Lookup computes the reference outputs of a batch: one pooled vector per
// query, in query order. Each distinct index is fetched from the store exactly
// once into a map (the functional mirror of the paper's read-once claim), one
// Store.Element per element, then every query pools its vectors with a plain
// loop. Empty queries produce zero vectors, matching the engines. It returns
// an error when the batch references an index outside the store or carries
// an unknown pooling operation.
func Lookup(store *embedding.Store, b embedding.Batch) ([]tensor.Vector, error) {
	gathered := make(map[header.Index]tensor.Vector)
	for _, q := range b.Queries {
		for _, idx := range q.Indices {
			if _, ok := gathered[idx]; ok {
				continue
			}
			if uint64(idx) >= store.TotalRows() {
				return nil, fmt.Errorf("oracle: index %d out of range [0,%d)", idx, store.TotalRows())
			}
			// Element by element, not Store.Vector: the engines' rows come
			// from the store's fill kernel, and a bug there must not reach
			// the referee too.
			v := make(tensor.Vector, store.Dim())
			for e := range v {
				v[e] = store.Element(idx, e)
			}
			gathered[idx] = v
		}
	}

	out := make([]tensor.Vector, len(b.Queries))
	for qi, q := range b.Queries {
		acc := make(tensor.Vector, store.Dim())
		switch b.Op {
		case tensor.OpSum, tensor.OpMean:
			for _, idx := range q.Indices {
				for e, x := range gathered[idx] {
					acc[e] += x
				}
			}
			if b.Op == tensor.OpMean && q.Indices.Len() > 0 {
				// The hardware's mean is a sum finalized by one multiply with
				// the reciprocal; reproduce that exact operation.
				inv := 1 / float32(q.Indices.Len())
				for e := range acc {
					acc[e] *= inv
				}
			}
		case tensor.OpMin:
			for e := range acc {
				acc[e] = float32(math.Inf(1))
			}
			for _, idx := range q.Indices {
				for e, x := range gathered[idx] {
					if x < acc[e] {
						acc[e] = x
					}
				}
			}
		case tensor.OpMax:
			for e := range acc {
				acc[e] = float32(math.Inf(-1))
			}
			for _, idx := range q.Indices {
				for e, x := range gathered[idx] {
					if x > acc[e] {
						acc[e] = x
					}
				}
			}
		default:
			return nil, fmt.Errorf("oracle: unknown pooling op %d", b.Op)
		}
		if q.Indices.Len() == 0 {
			// Engines emit a zero vector for an empty query regardless of op.
			acc = make(tensor.Vector, store.Dim())
		}
		out[qi] = acc
	}
	return out, nil
}

// Diff compares engine outputs against the oracle's bit-for-bit and returns a
// description of the first mismatch, or "" when they agree. A missing or
// short output slice is itself a mismatch.
func Diff(got, want []tensor.Vector) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d outputs for %d queries", len(got), len(want))
	}
	for qi := range want {
		if got[qi] == nil {
			return fmt.Sprintf("query %d has no output", qi)
		}
		if len(got[qi]) != len(want[qi]) {
			return fmt.Sprintf("query %d output dim %d, oracle %d", qi, len(got[qi]), len(want[qi]))
		}
		for e := range want[qi] {
			if got[qi][e] != want[qi][e] {
				return fmt.Sprintf("query %d element %d: engine %v, oracle %v",
					qi, e, got[qi][e], want[qi][e])
			}
		}
	}
	return ""
}

// Stationary reports an error when a lookup replayed on one memory cost
// first PE cycles on its first run and last on a later one, and the two lie
// further apart than the history of the memory can explain. Each of the
// lookup's reads may find its row open, closed or holding another row, which
// moves that read by at most a precharge and an activate (TRP + TRCD); each
// refresh window its span crosses may stall it by one TRFC; and one PE
// cycle covers an issue cycle off a PE-clock edge. Anything beyond that
// bracket is a lookup paying for the lookups before it.
func Stationary(m dram.Config, reads int, first, last sim.Cycle) error {
	bracket := sim.MemCycle(reads) * (m.TRP + m.TRCD)
	if m.TREFI > 0 {
		span := m.FromPE(max(first, last))
		bracket += (span/m.TREFI + 1) * m.TRFC
	}
	bound := m.ToPE(bracket) + 1
	if first > last+bound || last > first+bound {
		return fmt.Errorf("last replay costs %d cycles, first %d: more than the %d-cycle bracket of row state and refresh apart", last, first, bound)
	}
	return nil
}
