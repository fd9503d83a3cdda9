//go:build !race

package spmv

import (
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sparse"
)

// One product allocates its result, its plan and the row pass's counters and
// scratch, and nothing per chunk, per merge group or per row: no stream is
// built. Measured at 6 whether the matrix has 64 rows or 4096, in 16 chunks
// or 64 (one merge iteration, summed into y); the list-and-fold pass of
// more than 256 chunks adds its partial list (7 at 300 chunks).
func TestMultiplyAllocBudget(t *testing.T) {
	e, err := NewEngine(Default())
	if err != nil {
		t.Fatal(err)
	}
	const budget = 8
	for _, chunks := range []int{16, 64} {
		cols := chunks * e.cfg.VectorSize
		for _, rows := range []int{64, 4096} {
			m := sparse.RandomUniform(rows, cols, 4096.0/float64(rows*cols), 1)
			x := sparse.DenseVector(cols, 2)
			mem := dram.MustSystem(dram.DDR4())
			got := testing.AllocsPerRun(5, func() {
				if _, err := e.Multiply(m, x, mem); err != nil {
					t.Fatal(err)
				}
			})
			if got > budget {
				t.Errorf("Multiply of %d rows in %d chunks: %v allocations, budget %d whatever the shape", rows, chunks, got, budget)
			}
		}
	}
}
