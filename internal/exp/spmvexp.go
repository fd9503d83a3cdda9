package exp

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/twostep"
)

func init() {
	register("fig9", Fig9)
	register("fig14", Fig14)
}

// Fig9 reproduces the SpMV iteration/round/merge counts for matrices with up
// to 20 million columns at vector sizes 1024 and 2048.
func Fig9() (*Report, error) {
	rep := &Report{
		ID:     "fig9",
		Title:  "SpMV iterations, rounds, and merges vs matrix columns",
		Header: []string{"columns", "V", "iterations", "multiply rounds", "merge iterations", "merges"},
	}
	cols := []int{1 << 10, 1 << 14, 1 << 18, 1 << 21, 5_000_000, 10_000_000, 20_000_000}
	for _, v := range []int{1024, 2048} {
		for _, c := range cols {
			p, err := spmv.NewPlan(c, v)
			if err != nil {
				return nil, err
			}
			rep.AddRow(itoa(c), itoa(v), itoa(p.Iterations()), itoa(p.MultiplyRounds()),
				itoa(p.MergeIterations()), itoa(p.TotalMerges()))
		}
	}
	rep.AddNote("paper: even beyond 5M columns no more than two merge stages at V=2048")
	return rep, nil
}

// spmvWorkload is one Fig. 14 matrix.
type spmvWorkload struct {
	name string
	m    *sparse.LIL
}

// Fig14Suite builds the synthetic stand-ins for the paper's scientific
// (matrix-inversion/banded) and graph workloads: small matrices need no
// merge iterations (Fafnir's best case), large ones are merge-heavy
// (Two-Step's best case).
func Fig14Suite() []spmvWorkload {
	return []spmvWorkload{
		{"SC-small (banded 2k, dense band)", sparse.Banded(2000, 96, 41)},
		{"SC-medium (banded 8k)", sparse.Banded(8000, 64, 42)},
		{"SC-large (banded 32k)", sparse.Banded(32000, 32, 43)},
		{"GR-small (powerlaw 2k)", sparse.PowerLawGraph(2000, 48, 44)},
		{"GR-medium (powerlaw 8k)", sparse.PowerLawGraph(8000, 16, 45)},
		{"GR-large (powerlaw 32k)", sparse.PowerLawGraph(32000, 8, 46)},
		{"RO (sparse uniform 32k)", sparse.RandomUniform(32000, 32000, 2e-4, 47)},
	}
}

// Fig14 reproduces the SpMV speedup of Fafnir over the Two-Step algorithm
// across the workload suite.
func Fig14() (*Report, error) { return Fig14On(Fig14Suite()) }

// Fig14On runs the Fig. 14 comparison over an already generated suite, so
// benchmarks can time the engines apart from matrix construction.
func Fig14On(suite []spmvWorkload) (*Report, error) {
	fcfg := spmv.Default()
	faf, err := spmv.NewEngine(fcfg)
	if err != nil {
		return nil, err
	}
	ts, err := twostep.NewEngine(twostep.Default())
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:     "fig14",
		Title:  "SpMV speedup of Fafnir over Two-Step",
		Header: []string{"workload", "nnz", "merge iters", "Fafnir cycles", "Two-Step cycles", "speedup"},
	}
	for _, wl := range suite {
		x := sparse.DenseVector(wl.m.Cols, 7)
		fres, err := faf.Multiply(wl.m, x, dram.MustSystem(dram.DDR4()))
		if err != nil {
			return nil, fmt.Errorf("%s (fafnir): %w", wl.name, err)
		}
		tres, err := ts.Multiply(wl.m, x, dram.MustSystem(dram.DDR4()))
		if err != nil {
			return nil, fmt.Errorf("%s (twostep): %w", wl.name, err)
		}
		if !fres.Y.Equal(tres.Y) {
			return nil, fmt.Errorf("%s: engines disagree functionally", wl.name)
		}
		rep.AddRow(wl.name, itoa(wl.m.NNZ()), itoa(fres.Plan.MergeIterations()),
			fmt.Sprintf("%d", fres.TotalCycles), fmt.Sprintf("%d", tres.TotalCycles),
			f2(float64(tres.TotalCycles)/float64(fres.TotalCycles)))
	}
	rep.AddNote("paper: up to 4.6x on small/sparse workloads, >=1.1x on merge-heavy ones")
	rep.AddNote("Fafnir wins iteration 0 (no decompression); Two-Step wins merge iterations")
	return rep, nil
}
