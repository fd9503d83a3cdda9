package main

import (
	"math"
	"math/rand"
	"time"

	"fafnir"
	"fafnir/internal/dram"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/twostep"
)

// The two SpMV workloads use internal/sparse in opposite ways: spmv_build
// constructs matrices and multiplies each once (the exhibit flow), while
// spmv_iterate multiplies prebuilt matrices over and over (the solver and
// graph-kernel flow), reading them chunk by chunk.

// matrixSpec names one generated matrix; class is the generator family the
// per-layer table reports it under.
type matrixSpec struct {
	class string
	build func(seed int64) *sparse.LIL
}

// The matrix classes of Fig. 14 at sizes that let a ten-second run hold a
// few dozen whole passes: banded "scientific", two power-law graphs, and a
// highly sparse uniform matrix. All are wider than the engine's 2048-column
// vector, so every product has merge iterations.
func buildSpecs(quick bool) []matrixSpec {
	n := 1
	if quick {
		n = 8
	}
	return []matrixSpec{
		{"banded", func(s int64) *sparse.LIL { return sparse.Banded(3000/n, 24, s) }},
		{"graph", func(s int64) *sparse.LIL { return sparse.PowerLawGraph(3000/n, 6, s) }},
		{"graph", func(s int64) *sparse.LIL { return sparse.PowerLawGraph(9000/n, 4, s) }},
		{"uniform", func(s int64) *sparse.LIL { return sparse.RandomUniform(9000/n, 9000/n, 3e-4*float64(n), s) }},
	}
}

// specSeed derives one generator seed per matrix from the run's seed.
func specSeed(seed int64, k int) int64 { return seed*1000 + int64(k) + 1 }

type spmvEngines struct {
	faf *spmv.Engine
	two *twostep.Engine
}

func newSpmvEngines() (spmvEngines, error) {
	faf, err := spmv.NewEngine(spmv.Default())
	if err != nil {
		return spmvEngines{}, err
	}
	two, err := twostep.NewEngine(twostep.Default())
	return spmvEngines{faf, two}, err
}

// checkProduct compares a product with the row-major reference at the
// facade's tolerance (System.SpMV): the tree reduces in another association
// order, so float32 sums may differ in the last bits.
func checkProduct(what string, m *sparse.LIL, x, y fafnir.Vector) error {
	want, err := m.MulVec(x)
	if err != nil {
		return err
	}
	if len(y) != len(want) {
		return checkf("%s: product has %d rows, want %d", what, len(y), len(want))
	}
	for i := range want {
		diff := math.Abs(float64(y[i] - want[i]))
		if diff > 1e-4*(1+math.Abs(float64(want[i]))) || math.IsNaN(diff) {
			return checkf("%s: row %d is %v, want %v", what, i, y[i], want[i])
		}
	}
	return nil
}

// ---- spmv_build ----

var spmvBuild = workload{
	name: "spmv_build",
	op:   "one pass: four matrices generated, each multiplied once by the Fafnir SpMV engine and once by Two-Step on fresh DRAM",
	item: "non-zero built and multiplied",
	why:  "Construction-dominated one-shot exhibit flow (what fafnir-bench -exp fig14 users pay): sparse.FromCOO and the generators do most of the work, the engines about a fifth.",
	setup: func(seed int64, quick bool) (instance, error) {
		eng, err := newSpmvEngines()
		if err != nil {
			return nil, err
		}
		b := &buildInst{eng: eng, specs: buildSpecs(quick), seed: seed}
		rng := rand.New(rand.NewSource(seed))
		d := newDigest()
		// The operands are the benchmark's own; the matrices are the
		// program's, so their content is hashed to show when a generator
		// starts producing something else.
		nnz := 0
		for k, sp := range b.specs {
			m := sp.build(specSeed(seed, k))
			d.matrix(m)
			nnz += m.NNZ()
			b.x = append(b.x, denseOperand(rng, m.Cols, d))
		}
		b.info = inputInfo{SHA256: d.sum(), Seed: seed, Clients: 1,
			Counts: map[string]int{"matrices": len(b.specs), "nnz_per_pass": nnz}}
		return b, nil
	},
}

type buildInst struct {
	info  inputInfo
	eng   spmvEngines
	specs []matrixSpec
	x     []fafnir.Vector
	seed  int64
}

func (b *buildInst) inputs() inputInfo { return b.info }
func (b *buildInst) clients() int      { return 1 }
func (b *buildInst) period() int       { return 1 }
func (b *buildInst) close() error      { return nil }

// pass is the timed operation. The checks run between the timed spans.
func (b *buildInst) pass(tr *tracer, s *simStats) (time.Duration, float64, error) {
	var busy time.Duration
	var nnz float64
	id := uint64(0)
	if tr != nil {
		id = tr.nextID()
	}
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		busy += d
		if tr != nil {
			tr.span(name, laneOp, t0, d, tr.nextID(), id)
		}
		return err
	}
	for k, sp := range b.specs {
		var m *sparse.LIL
		var faf *spmv.Result
		var two *twostep.Result
		_ = timed("sparse.generate", func() error { m = sp.build(specSeed(b.seed, k)); return nil })
		if err := timed("spmv.multiply", func() (err error) {
			faf, err = b.eng.faf.Multiply(m, b.x[k], dram.MustSystem(dram.DDR4()))
			return err
		}); err != nil {
			return 0, 0, err
		}
		if err := timed("twostep.multiply", func() (err error) {
			two, err = b.eng.two.Multiply(m, b.x[k], dram.MustSystem(dram.DDR4()))
			return err
		}); err != nil {
			return 0, 0, err
		}
		if err := checkProduct("spmv_build "+sp.class, m, b.x[k], faf.Y); err != nil {
			return 0, 0, err
		}
		if !faf.Y.Equal(two.Y) {
			return 0, 0, checkf("spmv_build %s: Fafnir and Two-Step products differ", sp.class)
		}
		nnz += float64(m.NNZ())
		if s != nil {
			s.cycles += float64(faf.TotalCycles)
			s.reads += float64(faf.ElementsStreamed)
		}
	}
	return busy, nnz, nil
}

func (b *buildInst) run(_, _ int, _ bool, tr *tracer) (time.Duration, float64, error) {
	return b.pass(tr, nil)
}

func (b *buildInst) simulated(_ *tracer) (*simStats, error) {
	s := &simStats{ops: 1}
	_, nnz, err := b.pass(nil, s)
	if err != nil {
		s.failed, s.errs = 1, []string{err.Error()}
	}
	s.items = nnz
	return s, nil
}

func (b *buildInst) drills(_ []float64, out metrics) error {
	return sparseDrills(b.specs, b.seed, b.x, b.eng, out)
}

// ---- spmv_iterate ----

const productsPerMatrix = 8 // power-iteration steps before the operand restarts

var spmvIterate = workload{
	name: "spmv_iterate",
	op:   "one spmv.Engine.Multiply of a prebuilt matrix on fresh DRAM, operand fed back (power iteration)",
	item: "non-zero multiplied",
	why:  "Uses internal/sparse the other way: prebuilt matrices read chunk by chunk per product, never built, so a sparse change that speeds building but slows chunked reads is caught; Two-Step idle.",
	setup: func(seed int64, quick bool) (instance, error) {
		eng, err := newSpmvEngines()
		if err != nil {
			return nil, err
		}
		it := &iterInst{eng: eng, seed: seed}
		rng := rand.New(rand.NewSource(seed))
		d := newDigest()
		nnz := 0
		for k, sp := range buildSpecs(quick) {
			if sp.class == "uniform" {
				continue // power iteration wants the three structured matrices
			}
			it.specs = append(it.specs, sp)
			m := sp.build(specSeed(seed, k))
			d.matrix(m)
			nnz += m.NNZ()
			it.m = append(it.m, m)
			it.x0 = append(it.x0, denseOperand(rng, m.Cols, d))
		}
		it.x = make([]fafnir.Vector, len(it.m))
		it.info = inputInfo{SHA256: d.sum(), Seed: seed, Clients: 1,
			Counts: map[string]int{"matrices": len(it.m), "nnz": nnz, "products_per_matrix": productsPerMatrix}}
		return it, nil
	},
}

type iterInst struct {
	info  inputInfo
	eng   spmvEngines
	specs []matrixSpec
	seed  int64
	m     []*sparse.LIL
	x0, x []fafnir.Vector
}

func (it *iterInst) inputs() inputInfo { return it.info }
func (it *iterInst) clients() int      { return 1 }
func (it *iterInst) close() error      { return nil }

// period: consecutive operations visit the matrices in turn, so any whole
// number of turns carries the same mix.
func (it *iterInst) period() int { return len(it.m) }

// product is operation i: matrices in turn, each restarting its operand
// every productsPerMatrix steps so the sequence repeats exactly.
func (it *iterInst) product(i int) (*spmv.Result, time.Duration, float64, error) {
	k := i % len(it.m)
	if (i/len(it.m))%productsPerMatrix == 0 || it.x[k] == nil {
		it.x[k] = append(fafnir.Vector(nil), it.x0[k]...)
	}
	m, x := it.m[k], it.x[k]
	t0 := time.Now()
	res, err := it.eng.faf.Multiply(m, x, dram.MustSystem(dram.DDR4()))
	dur := time.Since(t0)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := checkProduct("spmv_iterate "+it.specs[k].class, m, x, res.Y); err != nil {
		return nil, 0, 0, err
	}
	// x <- y / ||y||inf; a zero product keeps the operand.
	norm := float32(0)
	for _, v := range res.Y {
		if a := float32(math.Abs(float64(v))); a > norm {
			norm = a
		}
	}
	if norm > 0 {
		for j, v := range res.Y {
			x[j] = v / norm
		}
	}
	return res, dur, float64(m.NNZ()), nil
}

func (it *iterInst) run(_, i int, _ bool, tr *tracer) (time.Duration, float64, error) {
	start := time.Now()
	_, dur, nnz, err := it.product(i)
	if err == nil && tr != nil {
		tr.span("op", laneOp, start, dur, tr.nextID(), 0)
	}
	return dur, nnz, err
}

func (it *iterInst) simulated(_ *tracer) (*simStats, error) {
	s := &simStats{}
	for k := range it.x {
		it.x[k] = nil
	}
	for i := 0; i < len(it.m)*productsPerMatrix; i++ {
		res, _, nnz, err := it.product(i)
		s.ops++
		if err != nil {
			s.failed++
			s.errs = append(s.errs, err.Error())
			continue
		}
		s.items += nnz
		s.cycles += float64(res.TotalCycles)
		s.reads += float64(res.ElementsStreamed)
	}
	for k := range it.x {
		it.x[k] = nil
	}
	return s, nil
}

func (it *iterInst) drills(_ []float64, out metrics) error {
	return sparseDrills(it.specs, it.seed, it.x0, it.eng, out)
}
