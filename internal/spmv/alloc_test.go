//go:build !race

package spmv

import (
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sparse"
)

// One product allocates per chunk and per merge group — a stream, its two
// arrays, the merge's accumulators — and never per row: the cursor walks the
// matrix in place. Measured at 16 chunks and one merge group: 65 whether the
// matrix has 64 rows or 4096.
func TestMultiplyAllocBudget(t *testing.T) {
	e, err := NewEngine(Default())
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 16
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
		if got > 8*chunks {
			t.Errorf("Multiply of %d rows in %d chunks: %v allocations, budget %d whatever the row count", rows, chunks, got, 8*chunks)
		}
	}
}
