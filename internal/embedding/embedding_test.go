package embedding

import (
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
	want, err := tensor.Add(s.MustVector(3), s.MustVector(7))
	if err != nil {
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
	sum, err := tensor.Add(s.MustVector(3), s.MustVector(7))
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(sum.Scale(0.5)) {
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
