package spmv

import (
	"fmt"
	"sort"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sim"
	"fafnir/internal/sparse"
	"fafnir/internal/tensor"
)

// refMultiply is Multiply as it stood before the cursor walk and the dense
// merge: every chunk is copied out with ColumnChunk and multiplied against
// the rebased slice of the operand, and streams merge through a hash map and
// a sort. The timing calls are the engine's own.
func refMultiply(e *Engine, m *sparse.LIL, x tensor.Vector, mem *dram.System) (*Result, error) {
	plan, err := NewPlan(m.Cols, e.cfg.VectorSize)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: plan}
	var streams []*PartialStream
	var clock, peClock sim.Cycle
	for lo := 0; lo < m.Cols; lo += e.cfg.VectorSize {
		hi := min(lo+e.cfg.VectorSize, m.Cols)
		chunk := m.ColumnChunk(lo, hi)
		partial := &PartialStream{}
		for r := 0; r < chunk.Rows; r++ {
			if len(chunk.ColIdx[r]) == 0 {
				continue
			}
			var acc float32
			for i, c := range chunk.ColIdx[r] {
				acc += chunk.Vals[r][i] * x[lo:hi][c]
			}
			partial.Rows = append(partial.Rows, int32(r))
			partial.Vals = append(partial.Vals, acc)
		}
		streams = append(streams, partial)
		elems := chunk.NNZ()
		res.ElementsStreamed += elems
		res.BytesStreamed += uint64(elems) * 8
		if clock, peClock, err = e.roundTime(mem, clock, peClock, elems, e.cfg.MultElemsPerCycle); err != nil {
			return nil, err
		}
		if clock, err = e.writeBack(mem, clock, partial, plan.MergeIterations() > 0); err != nil {
			return nil, err
		}
	}
	peClock += e.fill()
	res.MultiplyCycles = peClock

	mergeStart := peClock
	for iter := 1; len(streams) > 1; iter++ {
		var next []*PartialStream
		for lo := 0; lo < len(streams); lo += e.cfg.VectorSize {
			group := streams[lo:min(lo+e.cfg.VectorSize, len(streams))]
			elems := 0
			for _, s := range group {
				elems += s.Len()
			}
			res.ElementsStreamed += elems
			res.BytesStreamed += uint64(elems) * 8
			if clock, peClock, err = e.roundTime(mem, clock, peClock, elems, e.cfg.MergeElemsPerCycle); err != nil {
				return nil, err
			}
			merged := refMerge(group)
			next = append(next, merged)
			if clock, err = e.writeBack(mem, clock, merged, iter+1 < plan.Iterations()); err != nil {
				return nil, err
			}
		}
		streams = next
		peClock += e.fill()
	}
	res.MergeCycles = peClock - mergeStart
	res.TotalCycles = peClock
	res.Y = tensor.New(m.Rows)
	if len(streams) == 1 {
		for i, r := range streams[0].Rows {
			res.Y[r] = streams[0].Vals[i]
		}
	}
	return res, nil
}

func refMerge(streams []*PartialStream) *PartialStream {
	acc := make(map[int32]float32)
	for _, s := range streams {
		for i, r := range s.Rows {
			acc[r] += s.Vals[i]
		}
	}
	rows := make([]int32, 0, len(acc))
	for r := range acc {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	out := &PartialStream{Rows: rows, Vals: make([]float32, len(rows))}
	for i, r := range rows {
		out.Vals[i] = acc[r]
	}
	return out
}

// cancelling is a 4x12 matrix with rows whose products cancel inside one
// 4-column chunk against an all-ones operand (row 0 in the first chunk,
// row 2 in the last) beside rows that do not.
func cancelling(t *testing.T) *sparse.LIL {
	t.Helper()
	m, err := sparse.FromCOO(&sparse.COO{Rows: 4, Cols: 12, Entries: []sparse.Coord{
		{Row: 0, Col: 0, Val: 3}, {Row: 0, Col: 2, Val: -3}, {Row: 0, Col: 5, Val: 2},
		{Row: 1, Col: 1, Val: 1}, {Row: 1, Col: 9, Val: 4},
		{Row: 2, Col: 8, Val: -1}, {Row: 2, Col: 10, Val: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The cursor walk and the dense merge changed how the product is computed,
// not what it is: every field of the result matches the reference on each
// matrix class, with none, one and two merge iterations.
func TestMultiplyMatchesChunkCopyReference(t *testing.T) {
	ones := tensor.New(12)
	for i := range ones {
		ones[i] = 1
	}
	cases := []struct {
		name string
		m    *sparse.LIL
		x    tensor.Vector
	}{
		{"banded", sparse.Banded(300, 3, 1), nil},
		{"graph", sparse.PowerLawGraph(300, 2, 2), nil},
		{"uniform", sparse.RandomUniform(90, 300, 0.05, 3), nil},
		{"cancelling", cancelling(t), ones},
	}
	for _, tc := range cases {
		x := tc.x
		if x == nil {
			x = sparse.DenseVector(tc.m.Cols, 17)
		}
		for _, width := range []int{512, 32, 8, 4} {
			cfg := smallConfig()
			cfg.VectorSize = width
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Multiply(tc.m, x, dram.MustSystem(dram.DDR4()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := refMultiply(e, tc.m, x, dram.MustSystem(dram.DDR4()))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want); err != nil {
				t.Errorf("%s at vector size %d (%d merge iterations): %v", tc.name, width, got.Plan.MergeIterations(), err)
			}
		}
	}
}

func sameResult(got, want *Result) error {
	switch {
	case !got.Y.Equal(want.Y):
		return fmt.Errorf("Y differs")
	case got.TotalCycles != want.TotalCycles, got.MultiplyCycles != want.MultiplyCycles, got.MergeCycles != want.MergeCycles:
		return fmt.Errorf("cycles total/multiply/merge %d/%d/%d, want %d/%d/%d",
			got.TotalCycles, got.MultiplyCycles, got.MergeCycles, want.TotalCycles, want.MultiplyCycles, want.MergeCycles)
	case got.ElementsStreamed != want.ElementsStreamed, got.BytesStreamed != want.BytesStreamed:
		return fmt.Errorf("streamed %d elements %d bytes, want %d and %d",
			got.ElementsStreamed, got.BytesStreamed, want.ElementsStreamed, want.BytesStreamed)
	}
	return nil
}

// Fafnir forwards a partial sum that cancelled to exactly zero like any
// other, so it is streamed again by the merge iteration; Two-Step drops it
// (internal/twostep pins the other half).
func TestMultiplyKeepsZeroPartials(t *testing.T) {
	cfg := smallConfig()
	cfg.VectorSize = 4
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cancelling(t)
	x := tensor.New(12)
	for i := range x {
		x[i] = 1
	}
	res, err := e.Multiply(m, x, dram.MustSystem(dram.DDR4()))
	if err != nil {
		t.Fatal(err)
	}
	// 7 matrix elements, then partials of rows {0,1}, {0}, {1,2}: 5 elements.
	if res.ElementsStreamed != 7+5 {
		t.Fatalf("streamed %d elements, want 12 with the two zero partials kept", res.ElementsStreamed)
	}
	if !res.Y.Equal(tensor.Vector{2, 5, 0, 0}) {
		t.Fatalf("y = %v", res.Y)
	}
}
