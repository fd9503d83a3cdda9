package spmv_test

import (
	"math"
	"slices"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/tensor"
)

// fuzzVectorSizes are the chunk widths FuzzSpMV draws from: powers of two
// and others, giving zero, one and up to five merge iterations over at most
// 40 columns.
var fuzzVectorSizes = [...]int{2, 3, 4, 5, 7, 8, 16, 64}

// fuzzValues are the matrix and operand values FuzzSpMV draws from: both
// zeros, small integers and fractions, whose float32 sums depend on their
// order. Only an operand draws the infinities, which make infinite and NaN
// partials.
var fuzzValues = [...]float32{0, float32(math.Copysign(0, -1)), 1, -1, 2, -3, 0.5, -0.25,
	0.1, -0.7, 1.5, 3, 1e-3, -4, 0.3, 7, float32(math.Inf(1)), float32(math.Inf(-1))}

// spmvFromBytes decodes a fuzz input. Four header bytes pick the vector
// size, a shape of at most 8 rows and 40 columns, and how many leading
// columns take their operand value from the bytes that follow (the rest
// read 1). Then come (row, column, value) triplets of matrix entries, whose
// values skip the infinities; a repeated coordinate keeps its first value.
func spmvFromBytes(data []byte) (width int, m *sparse.LIL, x tensor.Vector) {
	head := make([]byte, 4)
	copy(head, data)
	data = data[min(len(data), 4):]
	width = fuzzVectorSizes[int(head[0])%len(fuzzVectorSizes)]
	coo := &sparse.COO{Rows: int(head[1])%8 + 1, Cols: int(head[2])%40 + 1}
	x = tensor.New(coo.Cols)
	nx := min(int(head[3])%(coo.Cols+1), len(data))
	for c := range x {
		x[c] = 1
		if c < nx {
			x[c] = fuzzValues[int(data[c])%len(fuzzValues)]
		}
	}
	seen := make([]bool, coo.Rows*coo.Cols)
	for i := nx; i+2 < len(data); i += 3 {
		r, c := int(data[i])%coo.Rows, int(data[i+1])%coo.Cols
		if !seen[r*coo.Cols+c] {
			seen[r*coo.Cols+c] = true
			coo.Entries = append(coo.Entries, sparse.Coord{Row: r, Col: c, Val: fuzzValues[int(data[i+2])%(len(fuzzValues)-2)]})
		}
	}
	m, err := sparse.FromCOO(coo)
	if err != nil {
		panic(err) // the decoder makes valid coordinates only
	}
	return width, m, x
}

// Both schedules agree with the chunk-copying reference bit for bit on
// every decoded matrix, operand and vector size: the product, every cycle
// and traffic count, the plan, and every counter of the memory the rounds
// streamed through. Fafnir's product is also Two-Step's, whose dropped zero
// partials are exact zeros.
func FuzzSpMV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		width, m, x := spmvFromBytes(data)
		plan, err := spmv.NewPlan(m.Cols, width)
		if err != nil {
			t.Fatal(err)
		}
		ys := map[string]tensor.Vector{}
		for name, e := range schedules(t, width) {
			mem, refMem := dram.MustSystem(dram.DDR4()), dram.MustSystem(dram.DDR4())
			got, err := e.multiply(m, x, mem)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refRun(e.s, m, x, refMem)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want); err != nil {
				t.Fatalf("%s at vector size %d: %v\ny    = %v\nwant = %v", name, width, err, got.Y, want.Y)
			}
			if !slices.Equal(got.Plan.RoundsPerIteration, plan.RoundsPerIteration) || got.Plan.TotalMerges() != plan.TotalMerges() {
				t.Fatalf("%s: plan %v, NewPlan's %v", name, got.Plan, plan)
			}
			// Each rank of a round streams the round's elements divided
			// over the ranks, rounded up.
			st, rounds := mem.Stats(), uint64(0)
			for _, n := range plan.RoundsPerIteration {
				rounds += uint64(n)
			}
			if st != refMem.Stats() || st.Bytes < got.BytesStreamed || st.Bytes >= got.BytesStreamed+rounds*uint64(e.s.Ranks)*8 {
				t.Fatalf("%s: memory counters %+v, reference's %+v, for %d bytes streamed in %d rounds",
					name, st, refMem.Stats(), got.BytesStreamed, rounds)
			}
			ys[name] = got.Y
		}
		if r := firstBitDiff(ys["fafnir"], ys["two-step"]); r >= 0 {
			t.Fatalf("Fafnir and Two-Step products differ from row %d on: %v and %v", r, ys["fafnir"], ys["two-step"])
		}
	})
}
