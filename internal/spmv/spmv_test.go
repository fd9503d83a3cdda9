package spmv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fafnir/internal/dram"
	"fafnir/internal/fafnir"
	"fafnir/internal/sparse"
)

func TestPlanSingleChunk(t *testing.T) {
	p, err := NewPlan(1000, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.Iterations() != 1 || p.MergeIterations() != 0 || p.MultiplyRounds() != 1 || p.TotalMerges() != 0 {
		t.Fatalf("plan %+v", p)
	}
}

func TestPlanOneMergeIteration(t *testing.T) {
	// 10,000 columns at V=2048 -> 5 multiply rounds -> 1 merge round.
	p, err := NewPlan(10000, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.MultiplyRounds() != 5 {
		t.Fatalf("multiply rounds %d", p.MultiplyRounds())
	}
	if p.MergeIterations() != 1 || p.TotalMerges() != 1 {
		t.Fatalf("plan %+v", p)
	}
}

func TestPlanPaperClaim(t *testing.T) {
	// "even for matrices with more than 5 million columns, no more than two
	// merge stages are required" at V=2048.
	for _, cols := range []int{5_000_001, 10_000_000, 20_000_000} {
		p, err := NewPlan(cols, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if p.MergeIterations() > 2 {
			t.Fatalf("cols=%d needs %d merge iterations", cols, p.MergeIterations())
		}
	}
	// And at 2048^2 columns or fewer, at most one merge iteration.
	p, err := NewPlan(2048*2048, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.MergeIterations() != 1 {
		t.Fatalf("4.2M cols: %d merge iterations", p.MergeIterations())
	}
}

func TestPlanFig9Shapes(t *testing.T) {
	// Fig. 9 sweeps vector sizes 1024 and 2048: the smaller vector needs at
	// least as many iterations and merges everywhere.
	for _, cols := range []int{1 << 10, 1 << 16, 1 << 21, 20_000_000} {
		p1, err := NewPlan(cols, 1024)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := NewPlan(cols, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if p1.Iterations() < p2.Iterations() {
			t.Fatalf("cols=%d: V=1024 iterations %d < V=2048 %d", cols, p1.Iterations(), p2.Iterations())
		}
		if p1.TotalMerges() < p2.TotalMerges() {
			t.Fatalf("cols=%d: V=1024 merges < V=2048", cols)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(0, 2048); err == nil {
		t.Fatal("zero cols accepted")
	}
	if _, err := NewPlan(100, 0); err == nil {
		t.Fatal("zero vector size accepted")
	}
}

func TestPlanString(t *testing.T) {
	p, err := NewPlan(5_000_000, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() == "" {
		t.Fatal("empty String")
	}
}

func smallConfig() Config {
	cfg := Default()
	cfg.Tree.NumRanks = 8
	cfg.VectorSize = 16
	return cfg
}

func TestMultiplyMatchesReference(t *testing.T) {
	e, err := NewEngine(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		m := sparse.RandomUniform(40, 100, 0.1, seed)
		x := sparse.DenseVector(100, seed+50)
		want, errr := m.MulVec(x)
		if errr != nil {
			t.Fatal(errr)
		}
		mem := dram.MustSystem(dram.DDR4())
		res, errr := e.Multiply(m, x, mem)
		if errr != nil {
			t.Fatal(errr)
		}
		if !res.Y.Equal(want) {
			t.Fatalf("seed %d: result mismatch", seed)
		}
		if res.Plan.MultiplyRounds() != 7 { // ceil(100/16)
			t.Fatalf("rounds %d", res.Plan.MultiplyRounds())
		}
		if res.TotalCycles == 0 {
			t.Fatal("zero runtime")
		}
	}
}

func TestMultiplySingleChunkNoMergeCycles(t *testing.T) {
	cfg := smallConfig()
	cfg.VectorSize = 256
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sparse.RandomUniform(32, 100, 0.1, 3)
	x := sparse.DenseVector(100, 4)
	res, err := e.Multiply(m, x, dram.MustSystem(dram.DDR4()))
	if err != nil {
		t.Fatal(err)
	}
	if res.MergeCycles != 0 {
		t.Fatalf("single-chunk run charged %d merge cycles", res.MergeCycles)
	}
	if res.Plan.MergeIterations() != 0 {
		t.Fatalf("plan %+v", res.Plan)
	}
}

func TestMultiplyOperandMismatch(t *testing.T) {
	e, err := NewEngine(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := sparse.RandomUniform(4, 8, 0.5, 1)
	if _, err := e.Multiply(m, sparse.DenseVector(9, 1), dram.MustSystem(dram.DDR4())); err == nil {
		t.Fatal("operand mismatch accepted")
	}
}

func TestMultiplyBandedAndGraph(t *testing.T) {
	e, err := NewEngine(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*sparse.LIL{
		"banded": sparse.Banded(120, 2, 1),
		"graph":  sparse.PowerLawGraph(120, 2, 1),
	} {
		x := sparse.DenseVector(m.Cols, 9)
		want, errr := m.MulVec(x)
		if errr != nil {
			t.Fatal(errr)
		}
		res, errr := e.Multiply(m, x, dram.MustSystem(dram.DDR4()))
		if errr != nil {
			t.Fatalf("%s: %v", name, errr)
		}
		if !res.Y.Equal(want) {
			t.Fatalf("%s: result mismatch", name)
		}
	}
}

func TestMergeDominanceGrowsWithColumns(t *testing.T) {
	// More chunks -> more merge work relative to a single-chunk run.
	e, err := NewEngine(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	small := sparse.RandomUniform(64, 16, 0.2, 2)   // 1 chunk
	large := sparse.RandomUniform(64, 1024, 0.2, 2) // 64 chunks
	rs, err := e.Multiply(small, sparse.DenseVector(16, 1), dram.MustSystem(dram.DDR4()))
	if err != nil {
		t.Fatal(err)
	}
	rl, err := e.Multiply(large, sparse.DenseVector(1024, 1), dram.MustSystem(dram.DDR4()))
	if err != nil {
		t.Fatal(err)
	}
	if rs.MergeCycles != 0 || rl.MergeCycles == 0 {
		t.Fatalf("merge cycles small=%d large=%d", rs.MergeCycles, rl.MergeCycles)
	}
}

func TestValidateConfig(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.VectorSize = 0 },
		func(c *Config) { c.MultElemsPerCycle = 0 },
		func(c *Config) { c.MergeElemsPerCycle = 0 },
		func(c *Config) { c.Tree.NumRanks = 0 },
	}
	for i, m := range bad {
		cfg := Default()
		m(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDefaultUsesPaperTree(t *testing.T) {
	cfg := Default()
	if cfg.VectorSize != 2048 {
		t.Fatalf("VectorSize = %d", cfg.VectorSize)
	}
	if cfg.Tree.NumRanks != fafnir.Default().NumRanks {
		t.Fatal("tree config drifted from fafnir default")
	}
}

// Property: the plan always covers the whole matrix (rounds x V >= cols),
// merge iterations shrink stream counts geometrically, and a single
// iteration suffices exactly when cols <= V. V ranges over 2..4096: a
// vector size of 1 is rejected (TestVectorSizeOneRejected in
// internal/twostep).
func TestQuickPlanInvariants(t *testing.T) {
	f := func(colsRaw uint32, vRaw uint16) bool {
		cols := int(colsRaw%10_000_000) + 1
		v := int(vRaw%4095) + 2
		p, err := NewPlan(cols, v)
		if err != nil {
			return false
		}
		if p.MultiplyRounds()*v < cols {
			return false
		}
		if (p.Iterations() == 1) != (cols <= v) {
			return false
		}
		streams := p.MultiplyRounds()
		for _, r := range p.RoundsPerIteration[1:] {
			if r >= streams { // must strictly shrink
				return false
			}
			streams = r
		}
		return p.RoundsPerIteration[p.Iterations()-1] == 1 || p.Iterations() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}
