package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fafnir/internal/tensor"
)

func TestCOOValidate(t *testing.T) {
	good := &COO{Rows: 2, Cols: 2, Entries: []Coord{{0, 0, 1}, {1, 1, 2}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*COO{
		{Rows: 0, Cols: 2},
		{Rows: 2, Cols: 2, Entries: []Coord{{2, 0, 1}}},
		{Rows: 2, Cols: 2, Entries: []Coord{{0, -1, 1}}},
		{Rows: 2, Cols: 2, Entries: []Coord{{0, 0, 1}, {0, 0, 2}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad COO %d accepted", i)
		}
	}
}

func TestFromCOOSortsRows(t *testing.T) {
	coo := &COO{Rows: 1, Cols: 5, Entries: []Coord{{0, 4, 4}, {0, 1, 1}, {0, 3, 3}}}
	l, err := FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	if l.ColIdx[0][0] != 1 || l.ColIdx[0][1] != 3 || l.ColIdx[0][2] != 4 {
		t.Fatalf("row not sorted: %v", l.ColIdx[0])
	}
	if l.Vals[0][0] != 1 || l.Vals[0][1] != 3 || l.Vals[0][2] != 4 {
		t.Fatalf("values not permuted with columns: %v", l.Vals[0])
	}
}

func TestFromCOORejectsInvalid(t *testing.T) {
	if _, err := FromCOO(&COO{Rows: 1, Cols: 1, Entries: []Coord{{5, 5, 1}}}); err == nil {
		t.Fatal("invalid COO accepted")
	}
}

func TestNNZAndDensity(t *testing.T) {
	l := RandomUniform(100, 100, 0.05, 1)
	if l.NNZ() != 500 {
		t.Fatalf("NNZ = %d, want 500", l.NNZ())
	}
	if l.Density() != 0.05 {
		t.Fatalf("Density = %v", l.Density())
	}
	if l.BytesStreamed() != 500*8 {
		t.Fatalf("BytesStreamed = %d", l.BytesStreamed())
	}
}

func TestColumnChunk(t *testing.T) {
	coo := &COO{Rows: 2, Cols: 10, Entries: []Coord{
		{0, 1, 1}, {0, 5, 5}, {0, 9, 9},
		{1, 4, 4}, {1, 6, 6},
	}}
	l, err := FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	c := l.ColumnChunk(4, 8)
	if c.Cols != 4 || c.Rows != 2 {
		t.Fatalf("chunk shape %dx%d", c.Rows, c.Cols)
	}
	// Row 0 keeps only column 5 (rebased to 1); row 1 keeps 4->0 and 6->2.
	if len(c.ColIdx[0]) != 1 || c.ColIdx[0][0] != 1 || c.Vals[0][0] != 5 {
		t.Fatalf("row 0 chunk: %v %v", c.ColIdx[0], c.Vals[0])
	}
	if len(c.ColIdx[1]) != 2 || c.ColIdx[1][0] != 0 || c.ColIdx[1][1] != 2 {
		t.Fatalf("row 1 chunk: %v", c.ColIdx[1])
	}
}

func TestColumnChunkPanicsOnBadRange(t *testing.T) {
	l := RandomUniform(4, 4, 0.5, 1)
	for _, f := range []func(){
		func() { l.ColumnChunk(-1, 2) },
		func() { l.ColumnChunk(0, 5) },
		func() { l.ColumnChunk(2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad range accepted")
				}
			}()
			f()
		}()
	}
}

func TestChunksPartitionMatrix(t *testing.T) {
	l := RandomUniform(50, 97, 0.1, 3)
	total := 0
	for lo := 0; lo < l.Cols; lo += 20 {
		hi := lo + 20
		if hi > l.Cols {
			hi = l.Cols
		}
		total += l.ColumnChunk(lo, hi).NNZ()
	}
	if total != l.NNZ() {
		t.Fatalf("chunks hold %d of %d nnz", total, l.NNZ())
	}
}

// naiveMulVec is the dense triple loop: every (row, column) pair is looked
// up in the row's list, so it shares nothing with MulVec's traversal.
func naiveMulVec(l *LIL, x tensor.Vector) tensor.Vector {
	y := tensor.New(l.Rows)
	for r := 0; r < l.Rows; r++ {
		for c := 0; c < l.Cols; c++ {
			for i, cc := range l.ColIdx[r] {
				if int(cc) == c {
					y[r] += l.Vals[r][i] * x[c]
				}
			}
		}
	}
	return y
}

func TestMulVecMatchesNaive(t *testing.T) {
	l := RandomUniform(64, 80, 0.1, 5)
	x := DenseVector(80, 6)
	got, err := l.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for r := range l.ColIdx {
		stored += len(l.Vals[r])
	}
	if stored != l.NNZ() {
		t.Fatalf("rows hold %d values, NNZ reports %d", stored, l.NNZ())
	}
	if !got.Equal(naiveMulVec(l, x)) {
		t.Fatal("MulVec and the naive triple loop disagree")
	}
}

func TestMulVecDimensionError(t *testing.T) {
	l := RandomUniform(4, 4, 0.5, 1)
	if _, err := l.MulVec(tensor.New(5)); err == nil {
		t.Fatal("bad operand accepted")
	}
}

func TestMulVecHandComputed(t *testing.T) {
	// [1 2; 0 3] * [10, 100] = [210, 300]
	coo := &COO{Rows: 2, Cols: 2, Entries: []Coord{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}}}
	l, err := FromCOO(coo)
	if err != nil {
		t.Fatal(err)
	}
	y, err := l.MulVec(tensor.Vector{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !y.Equal(tensor.Vector{210, 300}) {
		t.Fatalf("y = %v", y)
	}
}

func TestRandomUniformDeterministic(t *testing.T) {
	a := RandomUniform(32, 32, 0.1, 9)
	b := RandomUniform(32, 32, 0.1, 9)
	if a.NNZ() != b.NNZ() {
		t.Fatal("same seed, different matrices")
	}
	for r := 0; r < 32; r++ {
		for i := range a.ColIdx[r] {
			if a.ColIdx[r][i] != b.ColIdx[r][i] || a.Vals[r][i] != b.Vals[r][i] {
				t.Fatal("same seed, different contents")
			}
		}
	}
}

func TestPowerLawGraphShape(t *testing.T) {
	g := PowerLawGraph(500, 3, 11)
	if g.Rows != 500 || g.Cols != 500 {
		t.Fatalf("shape %dx%d", g.Rows, g.Cols)
	}
	if g.NNZ() == 0 {
		t.Fatal("empty graph")
	}
	// Symmetric adjacency: every (u,v) has (v,u).
	for r := 0; r < g.Rows; r++ {
		for _, c := range g.ColIdx[r] {
			found := false
			for _, back := range g.ColIdx[c] {
				if int(back) == r {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) lacks reverse", r, c)
			}
		}
	}
	// Power-law-ish: max degree far above mean degree.
	maxDeg, total := 0, 0
	for r := 0; r < g.Rows; r++ {
		d := len(g.ColIdx[r])
		total += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(total) / float64(g.Rows)
	if float64(maxDeg) < 3*mean {
		t.Fatalf("degree distribution too flat: max %d mean %.1f", maxDeg, mean)
	}
}

func TestPowerLawGraphPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad graph shape accepted")
		}
	}()
	PowerLawGraph(1, 1, 1)
}

func TestBandedShape(t *testing.T) {
	b := Banded(10, 1, 7)
	// Tridiagonal: 3n - 2 entries.
	if b.NNZ() != 28 {
		t.Fatalf("NNZ = %d, want 28", b.NNZ())
	}
	for r := 0; r < 10; r++ {
		for _, c := range b.ColIdx[r] {
			if int(c) < r-1 || int(c) > r+1 {
				t.Fatalf("entry (%d,%d) outside band", r, c)
			}
		}
	}
}

func TestBandedPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad banded shape accepted")
		}
	}()
	Banded(0, 1, 1)
}

func TestNewLILPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad shape accepted")
		}
	}()
	NewLIL(0, 5)
}

func TestDenseVectorDeterministic(t *testing.T) {
	a := DenseVector(16, 3)
	b := DenseVector(16, 3)
	if !a.Equal(b) {
		t.Fatal("same seed, different vectors")
	}
}

// Property: chunked SpMV equals whole-matrix SpMV (the Fig. 8 splitting is
// lossless).
func TestQuickChunkedSpMV(t *testing.T) {
	f := func(seed int64, chunkRaw uint8) bool {
		l := RandomUniform(20, 37, 0.15, seed)
		x := DenseVector(37, seed+1)
		want, err := l.MulVec(x)
		if err != nil {
			return false
		}
		chunk := int(chunkRaw%12) + 1
		got := tensor.New(20)
		for lo := 0; lo < l.Cols; lo += chunk {
			hi := lo + chunk
			if hi > l.Cols {
				hi = l.Cols
			}
			part, err := l.ColumnChunk(lo, hi).MulVec(x[lo:hi])
			if err != nil {
				return false
			}
			if err := tensor.OpSum.Apply(got, part); err != nil {
				return false
			}
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricDiagDominantShape(t *testing.T) {
	a := SymmetricDiagDominant(32, 2, 5)
	if a.Rows != 32 || a.Cols != 32 {
		t.Fatalf("shape %dx%d", a.Rows, a.Cols)
	}
	// Every row has a diagonal entry.
	d := a.Diagonal()
	for i, v := range d {
		if v == 0 {
			t.Fatalf("missing diagonal at %d", i)
		}
	}
}

func TestSymmetricDiagDominantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad shape accepted")
		}
	}()
	SymmetricDiagDominant(0, 1, 1)
}

func TestDiagonalOfNonSquare(t *testing.T) {
	// Diagonal of a wide matrix covers only min(rows, cols).
	l := NewLIL(2, 5)
	l.ColIdx[0] = []int32{0, 4}
	l.Vals[0] = []float32{7, 9}
	l.ColIdx[1] = []int32{1}
	l.Vals[1] = []float32{3}
	d := l.Diagonal()
	if len(d) != 2 || d[0] != 7 || d[1] != 3 {
		t.Fatalf("diagonal %v", d)
	}
}

func TestWithoutDiagonalPreservesOffDiagonals(t *testing.T) {
	a := SymmetricDiagDominant(16, 2, 9)
	r := a.WithoutDiagonal()
	// A = D + R: multiplying by a vector must decompose.
	x := DenseVector(16, 3)
	ax, err := a.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := r.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	d := a.Diagonal()
	for i := range ax {
		if ax[i] != rx[i]+d[i]*x[i] {
			t.Fatalf("row %d: A*x %v != R*x + D*x %v", i, ax[i], rx[i]+d[i]*x[i])
		}
	}
}

// Property: SymmetricDiagDominant is exactly symmetric for random shapes.
func TestQuickSPDSymmetry(t *testing.T) {
	f := func(seed int64, nRaw, bandRaw uint8) bool {
		n := int(nRaw%60) + 2
		band := int(bandRaw % 4)
		a := SymmetricDiagDominant(n, band, seed)
		get := func(r, c int) float32 {
			for i, cc := range a.ColIdx[r] {
				if int(cc) == c {
					return a.Vals[r][i]
				}
			}
			return 0
		}
		for r := 0; r < n; r++ {
			for i, c := range a.ColIdx[r] {
				if get(int(c), r) != a.Vals[r][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// The fused walk multiplies each chunk as ColumnChunk's copy, rebased and
// multiplied by the operand's slice, does: the same rows, each sum the same
// float32 sequence, for flat-backed and hand-assembled matrices alike.
func TestCursorMatchesColumnChunk(t *testing.T) {
	hand := NewLIL(3, 9)
	hand.ColIdx[0], hand.Vals[0] = []int32{0, 4, 8}, []float32{1, 2, 3}
	hand.ColIdx[2], hand.Vals[2] = []int32{3, 4}, []float32{4, 5}
	zeros := 0
	for name, l := range map[string]*LIL{
		"uniform": RandomUniform(30, 97, 0.1, 3),
		"graph":   PowerLawGraph(60, 2, 4),
		"banded":  Banded(40, 3, 5),
		"hand":    hand,
	} {
		x := DenseVector(l.Cols, 6)
		for _, keepZero := range []bool{false, true} {
			for _, width := range []int{1, 7, 20, l.Cols, l.Cols + 5} {
				cur := l.Cursor()
				for lo := 0; lo < l.Cols; lo += width {
					hi := min(lo+width, l.Cols)
					chunk := l.ColumnChunk(lo, hi)
					want, err := chunk.MulVec(x[lo:hi])
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s keepZero=%v width %d chunk [%d,%d)", name, keepZero, width, lo, hi)
					rows, sums, elems := cur.MulChunk(hi, x, keepZero)
					if elems != chunk.NNZ() {
						t.Fatalf("%s: cursor saw %d entries, chunk holds %d", at, elems, chunk.NNZ())
					}
					if len(sums) != len(rows) {
						t.Fatalf("%s: %d rows, %d sums", at, len(rows), len(sums))
					}
					k := 0
					for r := range chunk.ColIdx {
						if len(chunk.ColIdx[r]) == 0 {
							continue
						}
						if want[r] == 0 {
							zeros++
							if !keepZero {
								continue
							}
						}
						if k >= len(rows) || int(rows[k]) != r || math.Float32bits(sums[k]) != math.Float32bits(want[r]) {
							t.Fatalf("%s: output %d is not row %d with sum %v: rows %v sums %v", at, k, r, want[r], rows, sums)
						}
						k++
					}
					if k != len(rows) {
						t.Fatalf("%s: %d rows out, want %d", at, len(rows), k)
					}
				}
			}
		}
	}
	if zeros == 0 {
		t.Fatal("no chunk row summed to zero, so keepZero went untested")
	}
}

func TestNewLILSized(t *testing.T) {
	sizes := []int{2, 0, 1}
	l := NewLILSized(3, 4, sizes)
	for r, n := range sizes {
		if len(l.ColIdx[r]) != 0 || cap(l.ColIdx[r]) != n || len(l.Vals[r]) != 0 || cap(l.Vals[r]) != n {
			t.Fatalf("row %d: len %d cap %d, want 0 and %d", r, len(l.ColIdx[r]), cap(l.ColIdx[r]), n)
		}
	}
	l.ColIdx[0] = append(l.ColIdx[0], 1, 3)
	l.ColIdx[2] = append(l.ColIdx[2], 0)
	// One entry too many moves that row elsewhere and leaves the next intact.
	l.ColIdx[0] = append(l.ColIdx[0], 2)
	if l.ColIdx[2][0] != 0 || len(l.ColIdx[1]) != 0 {
		t.Fatalf("overfull row 0 spilled: %v", l.ColIdx)
	}
}
