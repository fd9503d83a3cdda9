package twostep

import (
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sparse"
	"fafnir/internal/tensor"
)

// Two-Step's first step emits only non-zero partial sums, so a row that
// cancels inside a chunk is never streamed by the merge; Fafnir keeps it
// (internal/spmv pins the other half, and checks both accelerators against
// one chunk-copy reference of the schedule).
func TestMultiplyDropsZeroPartials(t *testing.T) {
	cfg := smallConfig()
	cfg.VectorSize = 4
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0 and 2 cancel inside one 4-column chunk against all ones.
	m, err := sparse.FromCOO(&sparse.COO{Rows: 4, Cols: 12, Entries: []sparse.Coord{
		{Row: 0, Col: 0, Val: 3}, {Row: 0, Col: 2, Val: -3}, {Row: 0, Col: 5, Val: 2},
		{Row: 1, Col: 1, Val: 1}, {Row: 1, Col: 9, Val: 4},
		{Row: 2, Col: 8, Val: -1}, {Row: 2, Col: 10, Val: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(12)
	for i := range x {
		x[i] = 1
	}
	res, err := e.Multiply(m, x, dram.MustSystem(dram.DDR4()))
	if err != nil {
		t.Fatal(err)
	}
	// 7 matrix elements, then partials of rows {1}, {0}, {1}: 3 elements.
	if res.ElementsStreamed != 7+3 {
		t.Fatalf("streamed %d elements, want 10 with the two zero partials dropped", res.ElementsStreamed)
	}
	if !res.Y.Equal(tensor.Vector{2, 5, 0, 0}) {
		t.Fatalf("y = %v", res.Y)
	}
}
