package embedding

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

func TestStoreDeterministic(t *testing.T) {
	s1 := MustStore(1000, 16, 42)
	s2 := MustStore(1000, 16, 42)
	v1 := s1.MustVector(123)
	v2 := s2.MustVector(123)
	if !v1.Equal(v2) {
		t.Fatal("same seed produced different vectors")
	}
	s3 := MustStore(1000, 16, 43)
	if s3.MustVector(123).Equal(v1) {
		t.Fatal("different seed produced identical vector (suspicious)")
	}
}

func TestStoreValuesBounded(t *testing.T) {
	s := MustStore(100, 64, 7)
	for i := header.Index(0); i < 100; i++ {
		for _, x := range s.MustVector(i) {
			if x < -8 || x >= 9 {
				t.Fatalf("element %v out of range", x)
			}
			if x != float32(math.Trunc(float64(x))) {
				t.Fatalf("element %v not integral", x)
			}
		}
	}
}

// TestFillMatchesElement holds each fill kernel this CPU runs, called
// directly, and the store's own Vector, to Element, the per-element
// definition of the store's contents, bit for bit. Dimensions 1 to 17 run
// every tail length of the four-wide Go loop; 23 to 33 and 255 to 257 sit on
// both sides of the eight-element vector blocks; 128 is the benchmarks'
// dimension. Every kernel also fills a dst one element past an allocation's
// start, so its stores are unaligned.
func TestFillMatchesElement(t *testing.T) {
	dims := []int{23, 24, 25, 31, 32, 33, 128, 255, 256, 257}
	for d := 1; d <= 17; d++ {
		dims = append(dims, d)
	}
	for _, seed := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15} {
		for _, dim := range dims {
			s := MustStore(1<<32, dim, seed)
			for _, idx := range []header.Index{0, 1, 7, 12345, 1<<32 - 1} {
				check := func(how string, v []float32) {
					t.Helper()
					for e := range v {
						if want := s.Element(idx, e); math.Float32bits(v[e]) != math.Float32bits(want) {
							t.Fatalf("%s: seed %#x dim %d row %d: element %d = %v, Element says %v", how, seed, dim, idx, e, v[e], want)
						}
					}
				}
				check("Vector", s.MustVector(idx))
				for _, k := range fillKernels() {
					for _, off := range []int{0, 1} {
						dst := make([]float32, off+dim)[off:]
						k.fill(dst, s.rowBase(idx))
						check(fmt.Sprintf("%s kernel, offset %d", k.name, off), dst)
					}
				}
			}
		}
	}
}

// FuzzFillKernel holds the AVX-512 fill kernel to the Go one bit for bit on
// any seed, row and dimension up to 300.
func FuzzFillKernel(f *testing.F) {
	f.Add(uint64(0), uint32(0), uint16(128))
	f.Add(uint64(42), uint32(1<<32-1), uint16(257))
	f.Add(uint64(0x9e3779b97f4a7c15), uint32(12345), uint16(7))
	f.Add(uint64(1<<64-1), uint32(1<<32-1), uint16(300))
	f.Fuzz(func(t *testing.T, seed uint64, idx header.Index, dim uint16) {
		if !haveAVX512 {
			t.Skip("no AVX-512 on this CPU: the Go kernel is the only one")
		}
		s := &Store{totalRows: 1 << 32, dim: int(dim % 301), seed: seed}
		base := s.rowBase(idx)
		got, want := make([]float32, s.dim), make([]float32, s.dim)
		fillAsm(got, base)
		fillGo(want, base, 0)
		for e := range want {
			if math.Float32bits(got[e]) != math.Float32bits(want[e]) {
				t.Fatalf("seed %#x row %d dim %d: element %d = %v by fillAsm, %v by fillGo", seed, idx, s.dim, e, got[e], want[e])
			}
		}
	})
}

// BenchmarkFill times filling one 128-float row, the benchmarks' width, by
// each fill kernel this CPU runs.
func BenchmarkFill(b *testing.B) {
	s := MustStore(1<<22, 128, 1)
	dst := make([]float32, 128)
	for _, k := range fillKernels() {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.fill(dst, s.rowBase(header.Index(i)))
			}
		})
	}
}

func TestStoreErrorsOutOfRange(t *testing.T) {
	s := MustStore(10, 4, 1)
	if _, err := s.Vector(10); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestNewStoreErrorsOnBadShape(t *testing.T) {
	if _, err := NewStore(0, 4, 1); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewStore(4, 0, 1); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestBatchStats(t *testing.T) {
	b := Batch{
		Queries: []Query{
			{Indices: header.NewIndexSet(1, 2, 5)},
			{Indices: header.NewIndexSet(2, 5)},
		},
		Op: tensor.OpSum,
	}
	if b.NumQueries() != 2 {
		t.Fatalf("NumQueries = %d", b.NumQueries())
	}
	if b.MaxQuerySize() != 3 {
		t.Fatalf("MaxQuerySize = %d", b.MaxQuerySize())
	}
	if b.TotalAccesses() != 5 {
		t.Fatalf("TotalAccesses = %d", b.TotalAccesses())
	}
	if !b.UniqueIndices().Equal(header.NewIndexSet(1, 2, 5)) {
		t.Fatalf("UniqueIndices = %v", b.UniqueIndices())
	}
	if got := b.UniqueFraction(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("UniqueFraction = %v", got)
	}
}

func TestEmptyBatchUniqueFraction(t *testing.T) {
	var b Batch
	if b.UniqueFraction() != 0 {
		t.Fatal("empty batch fraction non-zero")
	}
}

func TestGoldenSum(t *testing.T) {
	s := MustStore(100, 4, 1)
	b := Batch{
		Queries: []Query{{Indices: header.NewIndexSet(3, 7)}},
		Op:      tensor.OpSum,
	}
	got := b.MustGolden(s)
	want := s.MustVector(3)
	if err := tensor.OpSum.Apply(want, s.MustVector(7)); err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(want) {
		t.Fatalf("golden %v, want %v", got[0], want)
	}
}

func TestGoldenMean(t *testing.T) {
	s := MustStore(100, 4, 1)
	b := Batch{
		Queries: []Query{{Indices: header.NewIndexSet(3, 7)}},
		Op:      tensor.OpMean,
	}
	got := b.MustGolden(s)
	sum := s.MustVector(3)
	if err := tensor.OpSum.Apply(sum, s.MustVector(7)); err != nil {
		t.Fatal(err)
	}
	for i := range sum {
		sum[i] *= 0.5
	}
	if !got[0].Equal(sum) {
		t.Fatalf("mean golden wrong: %v", got[0])
	}
}

func TestGoldenSingleIndexQuery(t *testing.T) {
	s := MustStore(100, 4, 1)
	b := Batch{Queries: []Query{{Indices: header.NewIndexSet(9)}}, Op: tensor.OpSum}
	got := b.MustGolden(s)
	if !got[0].Equal(s.MustVector(9)) {
		t.Fatal("single-index query should return the raw vector")
	}
}

func TestGoldenEmptyQuery(t *testing.T) {
	s := MustStore(100, 4, 1)
	b := Batch{Queries: []Query{{}}, Op: tensor.OpSum}
	got := b.MustGolden(s)
	if !got[0].Equal(tensor.New(4)) {
		t.Fatal("empty query should return zeros")
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := []GeneratorConfig{
		{NumQueries: 0, QuerySize: 1, Rows: 10},
		{NumQueries: 1, QuerySize: 0, Rows: 10},
		{NumQueries: 1, QuerySize: 1, Rows: 0},
		{NumQueries: 1, QuerySize: 11, Rows: 10},
		{NumQueries: 1, QuerySize: 1, Rows: 10, Dist: Zipf, ZipfS: 1.0},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := GeneratorConfig{NumQueries: 8, QuerySize: 16, Rows: 1 << 16, Dist: Zipf, ZipfS: 1.2, Seed: 99}
	g1, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1 := g1.Batch(tensor.OpSum)
	b2 := g2.Batch(tensor.OpSum)
	for i := range b1.Queries {
		if !b1.Queries[i].Indices.Equal(b2.Queries[i].Indices) {
			t.Fatalf("query %d differs across identical generators", i)
		}
	}
}

func TestGeneratorQueryShape(t *testing.T) {
	cfg := GeneratorConfig{NumQueries: 4, QuerySize: 16, Rows: 4096, Seed: 1}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Batch(tensor.OpSum)
	if len(b.Queries) != 4 {
		t.Fatalf("got %d queries", len(b.Queries))
	}
	for i, q := range b.Queries {
		if q.Indices.Len() != 16 {
			t.Fatalf("query %d has %d indices (duplicates not retried?)", i, q.Indices.Len())
		}
		for _, idx := range q.Indices {
			if uint64(idx) >= cfg.Rows {
				t.Fatalf("index %d out of row space", idx)
			}
		}
	}
}

func TestZipfSharesMoreThanUniform(t *testing.T) {
	// The motivation for Fig. 3: skewed popularity makes batches share
	// indices, so the unique fraction under Zipf must be lower than under
	// Uniform for the same shape.
	base := GeneratorConfig{NumQueries: 32, QuerySize: 16, Rows: 1 << 20, Seed: 5}
	uni := base
	uni.Dist = Uniform
	zip := base
	zip.Dist = Zipf
	zip.ZipfS = 1.5
	gu, err := NewGenerator(uni)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := NewGenerator(zip)
	if err != nil {
		t.Fatal(err)
	}
	fu := gu.Batch(tensor.OpSum).UniqueFraction()
	fz := gz.Batch(tensor.OpSum).UniqueFraction()
	if fz >= fu {
		t.Fatalf("zipf unique fraction %.3f not below uniform %.3f", fz, fu)
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || Zipf.String() != "zipf" {
		t.Fatal("distribution names wrong")
	}
	if Distribution(9).String() != "Distribution(9)" {
		t.Fatal("unknown distribution name wrong")
	}
}

func TestPerTableModeStaysInOneTable(t *testing.T) {
	cfg := GeneratorConfig{
		NumQueries: 16, QuerySize: 8, Rows: 32 * 1024, Seed: 7,
		PerTableRows: 1024,
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Batch(tensor.OpSum)
	tables := map[uint64]bool{}
	for qi, q := range b.Queries {
		table := uint64(q.Indices[0]) / 1024
		tables[table] = true
		for _, idx := range q.Indices {
			if uint64(idx)/1024 != table {
				t.Fatalf("query %d spans tables: %v", qi, q.Indices)
			}
		}
	}
	if len(tables) < 2 {
		t.Fatal("all queries landed in one table (suspicious)")
	}
}

func TestPerTableModeValidation(t *testing.T) {
	if _, err := NewGenerator(GeneratorConfig{
		NumQueries: 1, QuerySize: 4, Rows: 100, Seed: 1, PerTableRows: 30,
	}); err == nil {
		t.Fatal("non-divisible table size accepted")
	}
	if _, err := NewGenerator(GeneratorConfig{
		NumQueries: 1, QuerySize: 40, Rows: 64, Seed: 1, PerTableRows: 32,
	}); err == nil {
		t.Fatal("query larger than table accepted")
	}
}

func TestPerTableZipf(t *testing.T) {
	cfg := GeneratorConfig{
		NumQueries: 8, QuerySize: 8, Rows: 16 * 4096, Seed: 9,
		PerTableRows: 4096, Dist: Zipf, ZipfS: 1.5,
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Batch(tensor.OpSum)
	// Skew within tables: low in-table rows dominate.
	low := 0
	total := 0
	for _, q := range b.Queries {
		for _, idx := range q.Indices {
			if uint64(idx)%4096 < 64 {
				low++
			}
			total++
		}
	}
	if float64(low)/float64(total) < 0.3 {
		t.Fatalf("zipf head share %.2f too small within tables", float64(low)/float64(total))
	}
}

// The baseline engines compute their outputs with the golden reference, so
// what it allocates is paid per request: one Golden may allocate the rows it
// materializes and its outputs, plus slack for the memo — not a buffer regrown
// geometrically, which allocates (and copies) every row a second time.
func TestGoldenAllocatesEachRowOnce(t *testing.T) {
	const dim = 128
	gen, err := NewGenerator(GeneratorConfig{NumQueries: 256, QuerySize: 16, Rows: 1 << 20, Dist: Zipf, ZipfS: 1.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.Batch(tensor.OpSum)
	store := MustStore(1<<20, dim, 5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := b.Golden(store); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	need := uint64(b.UniqueIndices().Len()+len(b.Queries)) * dim * 4
	if got := after.TotalAlloc - before.TotalAlloc; got > need*3/2 {
		t.Fatalf("Golden allocated %d bytes for %d bytes of unique rows and outputs (limit 1.5x)", got, need)
	}
}
