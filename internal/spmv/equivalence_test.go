package spmv_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sim"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/tensor"
	"fafnir/internal/twostep"
)

// stream is one partial-result stream: per-row partial sums ordered by row.
type stream struct {
	Rows []int32
	Vals []float32
}

func (s *stream) Len() int   { return len(s.Rows) }
func (s *stream) Bytes() int { return s.Len() * 8 }

// refRun is the schedule as it stood before the row pass, the cursor walk,
// the dense merge and the shared round loop: every chunk is copied out with
// ColumnChunk and multiplied by LIL.MulVec against the rebased slice of the
// operand, the dense partial is thinned to the rows the chunk touches (to
// its non-zero rows without KeepZero), streams merge through a hash map and
// a sort, and the two iteration kinds are written out apart. It reads the
// Schedule's constants and nothing else of the engine: the memory streams
// and the clock arithmetic are its own.
func refRun(s spmv.Schedule, m *sparse.LIL, x tensor.Vector, mem *dram.System) (*spmv.Result, error) {
	plan, err := spmv.NewPlan(m.Cols, s.VectorSize)
	if err != nil {
		return nil, err
	}
	res := &spmv.Result{Plan: plan}
	var clock sim.MemCycle
	var peClock sim.Cycle
	round := func(out *stream, elems int, rate float64, spill bool) error {
		res.ElementsStreamed += elems
		res.BytesStreamed += uint64(elems) * 8
		if elems > 0 {
			var memDone sim.MemCycle
			for r := 0; r < s.Ranks; r++ {
				done, err := mem.StreamRead(clock, r, 0, (elems+s.Ranks-1)/s.Ranks*8, dram.DestLocal)
				if err != nil {
					return err
				}
				memDone = sim.Max(memDone, done)
			}
			clock = memDone
			ratio := mem.Config().ClockMHz / sim.PEClockMHz
			arrived := sim.Cycle((float64(memDone) + ratio - 1) / ratio)
			peClock = sim.Max(arrived, peClock+sim.Cycle(float64(elems)/rate+1))
		}
		if !spill || out.Len() == 0 {
			return nil
		}
		start := clock
		for r := 0; r < s.Ranks; r++ {
			done, err := mem.StreamWrite(start, r, 0, (out.Bytes()+s.Ranks-1)/s.Ranks)
			if err != nil {
				return err
			}
			clock = sim.Max(clock, done)
		}
		return nil
	}

	var streams []*stream
	for lo := 0; lo < m.Cols; lo += s.VectorSize {
		hi := min(lo+s.VectorSize, m.Cols)
		chunk := m.ColumnChunk(lo, hi)
		dense, err := chunk.MulVec(x[lo:hi])
		if err != nil {
			return nil, err
		}
		partial := &stream{}
		for r, v := range dense {
			if len(chunk.ColIdx[r]) > 0 && (v != 0 || s.KeepZero) {
				partial.Rows = append(partial.Rows, int32(r))
				partial.Vals = append(partial.Vals, v)
			}
		}
		streams = append(streams, partial)
		if err := round(partial, chunk.NNZ(), s.MultElemsPerCycle, plan.MergeIterations() > 0); err != nil {
			return nil, err
		}
	}
	peClock += s.Fill
	res.MultiplyCycles = peClock

	for iter := 1; len(streams) > 1; iter++ {
		var next []*stream
		for lo := 0; lo < len(streams); lo += s.VectorSize {
			group := streams[lo:min(lo+s.VectorSize, len(streams))]
			elems := 0
			for _, p := range group {
				elems += p.Len()
			}
			merged := refMerge(group)
			next = append(next, merged)
			if err := round(merged, elems, s.MergeElemsPerCycle, iter+1 < plan.Iterations()); err != nil {
				return nil, err
			}
		}
		streams = next
		peClock += s.Fill
	}
	res.MergeCycles = peClock - res.MultiplyCycles
	res.TotalCycles = peClock
	res.Y = tensor.New(m.Rows)
	for i, r := range streams[0].Rows {
		res.Y[r] = streams[0].Vals[i]
	}
	return res, nil
}

func refMerge(streams []*stream) *stream {
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
	out := &stream{Rows: rows, Vals: make([]float32, len(rows))}
	for i, r := range rows {
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

// accelerator is one engine's Multiply beside the Schedule it runs.
type accelerator struct {
	s        spmv.Schedule
	multiply func(*sparse.LIL, tensor.Vector, *dram.System) (*spmv.Result, error)
}

// schedules builds both accelerators on 8 ranks at the given vector size.
func schedules(t testing.TB, width int) map[string]accelerator {
	t.Helper()
	fcfg := spmv.Default()
	fcfg.Tree.NumRanks, fcfg.VectorSize = 8, width
	fe, err := spmv.NewEngine(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := twostep.Default()
	tcfg.Ranks, tcfg.VectorSize = 8, width
	te, err := twostep.NewEngine(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]accelerator{
		"fafnir":   {fe.Schedule(), fe.Multiply},
		"two-step": {te.Schedule(), te.Multiply},
	}
}

// The row pass and the one round loop changed how the product is computed,
// not what it is: on both accelerators every field of
// the result matches the reference on each matrix class, with none, one and
// two merge iterations.
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
	for _, engine := range []string{"fafnir", "two-step"} {
		t.Run(engine, func(t *testing.T) {
			for _, width := range []int{512, 32, 8, 4} {
				e := schedules(t, width)[engine]
				for _, tc := range cases {
					x := tc.x
					if x == nil {
						x = sparse.DenseVector(tc.m.Cols, 17)
					}
					got, err := e.multiply(tc.m, x, dram.MustSystem(dram.DDR4()))
					if err != nil {
						t.Fatal(err)
					}
					want, err := refRun(e.s, tc.m, x, dram.MustSystem(dram.DDR4()))
					if err != nil {
						t.Fatal(err)
					}
					if err := sameResult(got, want); err != nil {
						t.Errorf("%s at vector size %d (%d merge iterations): %v", tc.name, width, got.Plan.MergeIterations(), err)
					}
				}
			}
		})
	}
}

// With a fractional operand float32 addition is not associative, so y
// matches the reference bit for bit only if the row pass adds each chunk's
// entries, each group's partials and each level's group sums in the order
// the chunk copies and the merges do.
func TestMultiplyKeepsMergeAssociation(t *testing.T) {
	for _, m := range []*sparse.LIL{sparse.PowerLawGraph(300, 4, 2), sparse.RandomUniform(90, 300, 0.1, 3)} {
		rng := rand.New(rand.NewSource(5))
		x := tensor.New(m.Cols)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
		}
		for name, e := range schedules(t, 4) {
			got, err := e.multiply(m, x, dram.MustSystem(dram.DDR4()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := refRun(e.s, m, x, dram.MustSystem(dram.DDR4()))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want); err != nil {
				t.Errorf("%s (%d merge iterations): %v", name, got.Plan.MergeIterations(), err)
			}
		}
	}
}

// sameResult compares every field of two results, Y bit for bit: a -0
// where the reference has +0 is a difference, though the two compare equal.
func sameResult(got, want *spmv.Result) error {
	if r := firstBitDiff(got.Y, want.Y); r >= 0 {
		return fmt.Errorf("Y differs from row %d on", r)
	}
	switch {
	case got.TotalCycles != want.TotalCycles, got.MultiplyCycles != want.MultiplyCycles, got.MergeCycles != want.MergeCycles:
		return fmt.Errorf("cycles total/multiply/merge %d/%d/%d, want %d/%d/%d",
			got.TotalCycles, got.MultiplyCycles, got.MergeCycles, want.TotalCycles, want.MultiplyCycles, want.MergeCycles)
	case got.ElementsStreamed != want.ElementsStreamed, got.BytesStreamed != want.BytesStreamed:
		return fmt.Errorf("streamed %d elements %d bytes, want %d and %d",
			got.ElementsStreamed, got.BytesStreamed, want.ElementsStreamed, want.BytesStreamed)
	case got.Plan.String() != want.Plan.String():
		return fmt.Errorf("plan %v, want %v", got.Plan, want.Plan)
	}
	return nil
}

// firstBitDiff returns the first row at which a and b differ in their
// float32 bits or in length, or -1 if they are identical.
func firstBitDiff(a, b tensor.Vector) int {
	for i := range max(len(a), len(b)) {
		if i >= min(len(a), len(b)) || math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// Fafnir forwards a partial sum that cancelled to exactly zero like any
// other, so it is streamed again by the merge iteration; Two-Step drops it
// (internal/twostep pins the other half).
func TestMultiplyKeepsZeroPartials(t *testing.T) {
	m, x := cancelling(t)
	res, err := schedules(t, 4)["fafnir"].multiply(m, x, dram.MustSystem(dram.DDR4()))
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

// A row whose partials cancel in a merge is still a row of the merged
// stream, so every later merge iteration streams it again. At width 2 the
// 16 columns take three merge iterations: row 0's partials of chunks 0 and
// 1 (1 and -1) cancel in the first; row 1 has one entry, in chunk 7.
func TestMergedZeroStillStreams(t *testing.T) {
	m, err := sparse.FromCOO(&sparse.COO{Rows: 2, Cols: 16, Entries: []sparse.Coord{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 2, Val: -1}, {Row: 1, Col: 15, Val: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(16)
	for i := range x {
		x[i] = 1
	}
	for name, e := range schedules(t, 2) {
		got, err := e.multiply(m, x, dram.MustSystem(dram.DDR4()))
		if err != nil {
			t.Fatal(err)
		}
		// 3 matrix elements, then 2+1, 1+1 and 2 partials.
		if got.Plan.MergeIterations() != 3 || got.ElementsStreamed != 3+3+2+2 || !got.Y.Equal(tensor.Vector{0, 2}) {
			t.Errorf("%s: %d merge iterations, %d elements streamed, y = %v; want 3, 10 and [0 2]",
				name, got.Plan.MergeIterations(), got.ElementsStreamed, got.Y)
		}
		want, err := refRun(e.s, m, x, dram.MustSystem(dram.DDR4()))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// An error from the memory system — here a rank outside the geometry — comes
// back from Run.
func TestRunReportsMemoryErrors(t *testing.T) {
	m, x := cancelling(t)
	s := schedules(t, 4)["two-step"].s
	s.Ranks = 1 << 20
	if _, err := s.Run(m, x, dram.MustSystem(dram.DDR4())); err == nil {
		t.Fatal("a stream read from a rank outside the geometry succeeded")
	}
}
