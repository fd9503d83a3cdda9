package oracle

import (
	"fmt"
	"runtime"
	"testing"

	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/tensor"
)

// foldSeeds is how many of the sweep's workloads the fold check replays.
const foldSeeds = 16

// TestPassFoldMatchesGolden: the reference each pass folds from its staged
// rows, which the engine checks its tree against, equals
// embedding.Batch.Golden of the same hardware batch bit for bit over the
// sweep's seeded workloads, with every pooling op, dedup on and off,
// Parallelism 1, 2 and NumCPU, and one fault plan; and the folds cover every
// query once.
func TestPassFoldMatchesGolden(t *testing.T) {
	plan, err := fault.Parse("rank=0@0;ecc=0.02;seed=5")
	if err != nil {
		t.Fatal(err)
	}
	for seed := *seedBase; seed < *seedBase+foldSeeds; seed++ {
		for _, op := range []tensor.ReduceOp{tensor.OpSum, tensor.OpMin, tensor.OpMax, tensor.OpMean} {
			w := GenWorkload(seed)
			w.Op = op
			env, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, runtime.NumCPU()} {
				eng, err := env.engine(par)
				if err != nil {
					t.Fatal(err)
				}
				for _, dedup := range []bool{true, false} {
					env.checkFolds(t, eng, fmt.Sprintf("Parallelism=%d dedup=%v", par, dedup), func() error {
						_, err := eng.TimedLookup(env.Store, env.Layout, env.NewMem(), env.Batch, dedup)
						return err
					})
				}
			}
			eng, err := env.engine(1)
			if err != nil {
				t.Fatal(err)
			}
			env.checkFolds(t, eng, "faulted", func() error {
				inj, err := fault.NewInjector(plan, env.Mem.TotalRanks())
				if err != nil {
					return err
				}
				mem := env.NewMem()
				mem.AttachFaults(inj)
				_, err = eng.TimedLookup(env.Store, env.Layout, mem, env.Batch, true)
				return err
			})
		}
	}
}

// checkFolds runs one lookup on eng with its GoldenCheckHook capturing every
// pass's fold, and compares each with the Golden of its hardware batch.
func (e *Env) checkFolds(t *testing.T, eng *core.Engine, mode string, run func() error) {
	t.Helper()
	covered, bad := 0, ""
	eng.GoldenCheckHook = func(start int, _, want []tensor.Vector) {
		hw := embedding.Batch{Queries: e.Batch.Queries[start : start+len(want)], Op: e.Batch.Op}
		if d := Diff(want, hw.MustGolden(e.Store)); d != "" && bad == "" {
			bad = fmt.Sprintf("hardware batch at query %d: %s", start, d)
		}
		covered += len(want)
	}
	defer func() { eng.GoldenCheckHook = nil }()
	if err := run(); err != nil {
		t.Fatalf("%s %s: %v", e.W, mode, err)
	}
	if bad != "" || covered != len(e.Batch.Queries) {
		t.Fatalf("%s %s: folds covered %d of %d queries %s", e.W, mode, covered, len(e.Batch.Queries), bad)
	}
}
