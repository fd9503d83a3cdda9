package twostep

import (
	"strings"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
)

func smallConfig() Config {
	cfg := Default()
	cfg.Ranks = 8
	cfg.VectorSize = 16
	return cfg
}

// TestVectorSizeOneRejected: a vector size of 1 is a merge fan-in of 1, which
// never shrinks the stream count, so planning with it would never finish.
// The plan and both configurations reject it at once, naming the size.
func TestVectorSizeOneRejected(t *testing.T) {
	if _, err := spmv.NewPlan(1000, 1); err == nil || !strings.Contains(err.Error(), "vector size") {
		t.Errorf("NewPlan(1000, 1) = %v, want a vector size error", err)
	}
	scfg := spmv.Default()
	scfg.VectorSize = 1
	if err := scfg.Validate(); err == nil || !strings.Contains(err.Error(), "VectorSize") {
		t.Errorf("spmv.Config.Validate with VectorSize 1 = %v, want an error naming VectorSize", err)
	}
	tcfg := Default()
	tcfg.VectorSize = 1
	if err := tcfg.Validate(); err == nil || !strings.Contains(err.Error(), "VectorSize") {
		t.Errorf("twostep.Config.Validate with VectorSize 1 = %v, want an error naming VectorSize", err)
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.VectorSize = 0 },

		func(c *Config) { c.Step1ElemsPerCycle = 0 },
		func(c *Config) { c.MergeElemsPerCycle = 0 },
	}
	for i, m := range bad {
		cfg := Default()
		m(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
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
		res, errr := e.Multiply(m, x, dram.MustSystem(dram.DDR4()))
		if errr != nil {
			t.Fatal(errr)
		}
		if !res.Y.Equal(want) {
			t.Fatalf("seed %d mismatch", seed)
		}
		if res.TotalCycles == 0 || res.ElementsStreamed == 0 {
			t.Fatalf("implausible result %+v", res)
		}
	}
}

func TestMultiplyOperandMismatch(t *testing.T) {
	e, err := NewEngine(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := sparse.RandomUniform(4, 8, 0.5, 1)
	if _, err := e.Multiply(m, sparse.DenseVector(7, 1), dram.MustSystem(dram.DDR4())); err == nil {
		t.Fatal("operand mismatch accepted")
	}
}

func TestStep1SlowerMergeFasterThanFafnir(t *testing.T) {
	// The crux of Fig. 14: on a single-chunk matrix (no merges) Fafnir must
	// win; the Two-Step merge phase must be cheaper per element.
	ts, err := NewEngine(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fcfg := spmv.Default()
	fcfg.Tree.NumRanks = 8
	fcfg.VectorSize = 16
	fa, err := spmv.NewEngine(fcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Dense-ish small matrix, one chunk: pure step-1 comparison.
	m := sparse.RandomUniform(256, 16, 0.5, 3)
	x := sparse.DenseVector(16, 4)
	rts, err := ts.Multiply(m, x, dram.MustSystem(dram.DDR4()))
	if err != nil {
		t.Fatal(err)
	}
	rfa, err := fa.Multiply(m, x, dram.MustSystem(dram.DDR4()))
	if err != nil {
		t.Fatal(err)
	}
	if rts.TotalCycles <= rfa.TotalCycles {
		t.Fatalf("single-chunk: Two-Step %d not slower than Fafnir %d", rts.TotalCycles, rfa.TotalCycles)
	}
	if !rts.Y.Equal(rfa.Y) {
		t.Fatal("engines disagree functionally")
	}

	// Merge-dominated: many chunks of a large matrix. Two-Step's merge
	// cycles must be below Fafnir's.
	big := sparse.RandomUniform(512, 2048, 0.05, 5)
	xb := sparse.DenseVector(2048, 6)
	rts2, err := ts.Multiply(big, xb, dram.MustSystem(dram.DDR4()))
	if err != nil {
		t.Fatal(err)
	}
	rfa2, err := fa.Multiply(big, xb, dram.MustSystem(dram.DDR4()))
	if err != nil {
		t.Fatal(err)
	}
	if rts2.MergeCycles >= rfa2.MergeCycles {
		t.Fatalf("merge phase: Two-Step %d not faster than Fafnir %d", rts2.MergeCycles, rfa2.MergeCycles)
	}
}
