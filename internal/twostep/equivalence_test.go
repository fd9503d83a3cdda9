package twostep

import (
	"sort"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sim"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/tensor"
)

// refMultiply is Multiply as it stood before the cursor walk and the shared
// dense merge: every chunk is copied out with ColumnChunk and multiplied by
// LIL.MulVec, the dense partial is thinned to its non-zero rows, and
// streams merge through a hash map and a sort. The timing calls are the
// engine's own.
func refMultiply(e *Engine, m *sparse.LIL, x tensor.Vector, mem *dram.System) (*Result, error) {
	plan, err := spmv.NewPlan(m.Cols, e.cfg.VectorSize)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	var streams []*spmv.PartialStream
	var clock, peClock sim.Cycle
	for lo := 0; lo < m.Cols; lo += e.cfg.VectorSize {
		hi := min(lo+e.cfg.VectorSize, m.Cols)
		chunk := m.ColumnChunk(lo, hi)
		partial, err := chunk.MulVec(x[lo:hi])
		if err != nil {
			return nil, err
		}
		stream := &spmv.PartialStream{}
		for r, v := range partial {
			if v != 0 {
				stream.Rows = append(stream.Rows, int32(r))
				stream.Vals = append(stream.Vals, v)
			}
		}
		streams = append(streams, stream)
		elems := chunk.NNZ()
		res.ElementsStreamed += elems
		res.BytesStreamed += uint64(elems) * 8
		if clock, peClock, err = e.roundTime(mem, clock, peClock, elems, e.cfg.Step1ElemsPerCycle); err != nil {
			return nil, err
		}
		if clock, err = e.writeBack(mem, clock, stream, plan.MergeIterations() > 0); err != nil {
			return nil, err
		}
	}
	peClock += e.cfg.PipelineFill
	res.Step1Cycles = peClock

	mergeStart := peClock
	for iter := 1; len(streams) > 1; iter++ {
		var next []*spmv.PartialStream
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
		peClock += e.cfg.PipelineFill
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

func refMerge(streams []*spmv.PartialStream) *spmv.PartialStream {
	acc := make(map[int32]float32)
	var order []int32
	for _, s := range streams {
		for i, r := range s.Rows {
			if _, ok := acc[r]; !ok {
				order = append(order, r)
			}
			acc[r] += s.Vals[i]
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := &spmv.PartialStream{Rows: order, Vals: make([]float32, len(order))}
	for i, r := range order {
		out.Vals[i] = acc[r]
	}
	return out
}

// cancelling is a 4x12 matrix with rows whose products cancel inside one
// 4-column chunk against an all-ones operand (row 0 in the first chunk,
// row 2 in the last) beside rows that do not.
func cancelling(t *testing.T) (*sparse.LIL, tensor.Vector) {
	t.Helper()
	m, err := sparse.FromCOO(&sparse.COO{Rows: 4, Cols: 12, Entries: []sparse.Coord{
		{Row: 0, Col: 0, Val: 3}, {Row: 0, Col: 2, Val: -3}, {Row: 0, Col: 5, Val: 2},
		{Row: 1, Col: 1, Val: 1}, {Row: 1, Col: 9, Val: 4},
		{Row: 2, Col: 8, Val: -1}, {Row: 2, Col: 10, Val: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ones := tensor.New(12)
	for i := range ones {
		ones[i] = 1
	}
	return m, ones
}

// The cursor walk and the dense merge changed how the product is computed,
// not what it is: every field of the result matches the reference on each
// matrix class, with none, one and two merge iterations.
func TestMultiplyMatchesChunkCopyReference(t *testing.T) {
	cm, cx := cancelling(t)
	cases := []struct {
		name string
		m    *sparse.LIL
		x    tensor.Vector
	}{
		{"banded", sparse.Banded(300, 3, 1), nil},
		{"graph", sparse.PowerLawGraph(300, 2, 2), nil},
		{"uniform", sparse.RandomUniform(90, 300, 0.05, 3), nil},
		{"cancelling", cm, cx},
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
			if !got.Y.Equal(want.Y) {
				t.Errorf("%s at vector size %d: Y differs", tc.name, width)
			}
			if got.TotalCycles != want.TotalCycles || got.Step1Cycles != want.Step1Cycles || got.MergeCycles != want.MergeCycles {
				t.Errorf("%s at vector size %d: cycles total/step1/merge %d/%d/%d, want %d/%d/%d", tc.name, width,
					got.TotalCycles, got.Step1Cycles, got.MergeCycles, want.TotalCycles, want.Step1Cycles, want.MergeCycles)
			}
			if got.ElementsStreamed != want.ElementsStreamed || got.BytesStreamed != want.BytesStreamed {
				t.Errorf("%s at vector size %d: streamed %d elements %d bytes, want %d and %d", tc.name, width,
					got.ElementsStreamed, got.BytesStreamed, want.ElementsStreamed, want.BytesStreamed)
			}
		}
	}
}

// Two-Step's first step emits only non-zero partial sums, so a row that
// cancels inside a chunk is never streamed by the merge; Fafnir keeps it
// (internal/spmv pins the other half).
func TestMultiplyDropsZeroPartials(t *testing.T) {
	cfg := smallConfig()
	cfg.VectorSize = 4
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, x := cancelling(t)
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
