//go:build !race

package twostep

import (
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sparse"
)

// Like the Fafnir engine's, one product allocates its result, its plan and
// the row pass's counters and scratch, and nothing per chunk, per merge
// group or per row. Measured at 7 for every shape below.
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
