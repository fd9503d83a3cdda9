// Package spmv adapts the Fafnir tree to sparse matrix-vector
// multiplication (Section IV-D of the paper).
//
// Embedding lookup reduces distinct vectors into one vector; SpMV reduces
// the elements of each matrix row into one element. Fafnir bridges the gap
// with vectorization (Fig. 7c): the matrix is split through its
// uncompressed column dimension into chunks of VectorSize columns, the
// operand slice x[lo:hi) is buffered at the leaf multipliers, each rank
// streams its columns' non-zeros (both data and indices — Table II), leaf
// PEs multiply, and the tree sums contributions per row index. Chunks that
// do not fit produce partial result streams that later *merge iterations*
// combine on the same hardware, with leaf multiplication skipped (Fig. 8).
package spmv

import (
	"fmt"
)

// Plan describes the iteration/round schedule of one SpMV on the Fafnir
// tree (Fig. 8), reproduced analytically for Fig. 9.
type Plan struct {
	// Cols is the matrix column count.
	Cols int
	// VectorSize is the number of columns fitting in the tree at once
	// (2048 in the paper's SpMV configuration).
	VectorSize int
	// RoundsPerIteration lists, per iteration, the number of rounds:
	// element 0 is the multiply iteration (ceil(Cols/VectorSize) rounds);
	// subsequent elements are merge iterations.
	RoundsPerIteration []int
}

// NewPlan computes the schedule for a matrix with cols columns at the given
// vector size. The vector size is also the merge fan-in, so it must be at
// least 2: merging one stream at a time never reduces the stream count.
func NewPlan(cols, vectorSize int) (*Plan, error) {
	if cols <= 0 {
		return nil, fmt.Errorf("spmv: cols must be positive, got %d", cols)
	}
	if vectorSize < 2 {
		return nil, fmt.Errorf("spmv: vector size must be at least 2, got %d", vectorSize)
	}
	p := &Plan{Cols: cols, VectorSize: vectorSize}
	// Ceilings written (n-1)/v+1, which cannot overflow at any width.
	streams := (cols-1)/vectorSize + 1
	p.RoundsPerIteration = append(p.RoundsPerIteration, streams)
	// Each merge round combines up to VectorSize partial streams into one.
	for streams > 1 {
		streams = (streams-1)/vectorSize + 1
		p.RoundsPerIteration = append(p.RoundsPerIteration, streams)
	}
	return p, nil
}

// Iterations reports the total iteration count (multiply + merges).
func (p *Plan) Iterations() int { return len(p.RoundsPerIteration) }

// MergeIterations reports how many merge iterations follow iteration 0.
func (p *Plan) MergeIterations() int { return len(p.RoundsPerIteration) - 1 }

// MultiplyRounds reports the rounds of iteration 0.
func (p *Plan) MultiplyRounds() int { return p.RoundsPerIteration[0] }

// TotalMerges reports the total merge rounds across all merge iterations
// (the "required merges" series of Fig. 9).
func (p *Plan) TotalMerges() int {
	total := 0
	for _, r := range p.RoundsPerIteration[1:] {
		total += r
	}
	return total
}

// String renders the plan like "cols=5000000 V=2048: 2442 multiply rounds, 2
// merge iterations (2 merges)".
func (p *Plan) String() string {
	return fmt.Sprintf("cols=%d V=%d: %d multiply rounds, %d merge iterations (%d merges)",
		p.Cols, p.VectorSize, p.MultiplyRounds(), p.MergeIterations(), p.TotalMerges())
}
