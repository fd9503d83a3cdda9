package fafnir

import (
	"runtime/debug"
	"testing"

	"fafnir/internal/batch"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/tensor"
)

// Allocation budgets for the hot path. The tree is flattened into an arena
// and every per-action allocation (vector clones, header fields) comes from
// the leased scratch's bump allocators, so the
// steady-state costs below are structural invariants, not tuning targets: a
// budget breach means an arena was lost, a scratch stopped being pooled, or a
// slice started escaping again.
//
// Budgets are set with headroom above the measured steady state (noted per
// test) so noise — a map resize — does not flake, but a real regression
// (hundreds or thousands of allocs/op) trips immediately; TimedLookup's,
// whose every allocation is named, has none.

// allocsPerRun reports the steady-state allocations of f, warming once first
// so lazily-grown scratches and arena chunks reach their peak before
// measurement. GC is disabled across the measured runs, so a collection's
// own work is not charged to one of them.
func allocsPerRun(t *testing.T, f func()) float64 {
	t.Helper()
	if raceDetectorEnabled {
		// The race-enabled runtime's allocation counts are its
		// instrumentation's as much as the program's.
		t.Skip("alloc budgets are not measured under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm pools and arena chunks, now safe from eviction
	return testing.AllocsPerRun(10, f)
}

// TestRunTreeAllocBudget pins the full tree reduction of one batch-32
// hardware batch, including the scratch lease/release. Measured steady
// state: 0 allocs/op (acceptance bound for this PR: <= 100).
func TestRunTreeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budgets are not short-mode material")
	}
	e, plan, store, pl := allocTreeSetup(t, 1)
	leafSc := e.getTreeScratch() // holds leaf entries across runs; never released
	leafIn, err := e.leafInputs(leafSc, store, pl, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := allocsPerRun(t, func() {
		var totals PEStats
		var maxOcc int
		sc := e.getTreeScratch()
		if _, err := e.runTree(sc, tensor.OpSum, leafIn, &totals, &maxOcc, sc.perPE); err != nil {
			t.Fatal(err)
		}
		e.putTreeScratch(sc)
	})
	const budget = 16
	if got > budget {
		t.Errorf("runTree: %.0f allocs/op, budget %d", got, budget)
	}
}

// TestLeafInputsAllocBudget pins building the per-rank leaf entries of one
// hardware batch. Measured steady state: ~1 alloc/op (the per-rank entry
// index map rebuilt per batch).
func TestLeafInputsAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budgets are not short-mode material")
	}
	e, plan, store, pl := allocTreeSetup(t, 1)
	got := allocsPerRun(t, func() {
		sc := e.getTreeScratch()
		if _, err := e.leafInputs(sc, store, pl, plan, nil); err != nil {
			t.Fatal(err)
		}
		e.putTreeScratch(sc)
	})
	const budget = 32
	if got > budget {
		t.Errorf("leafInputs: %.0f allocs/op, budget %d", got, budget)
	}
}

// TestTimedLookupAllocBudget pins the timed batch-32 lookup at Parallelism 1
// and at the default: one hardware batch runs inline on the caller's
// goroutine at every setting, so both pay the same allocations and neither a
// goroutine nor a channel. The plan, the leaf and ready slices and the pass
// ring are the engine's own and the tree scratch comes off the free list, so
// what is left is the result, its output slots and their slab, and boxing
// the test's placement value into the interface: 4 measured. The budget was
// 100 while the lookup compiled a fresh plan per hardware batch (15
// measured).
func TestTimedLookupAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budgets are not short-mode material")
	}
	for _, par := range []int{1, 0} {
		e, plan, store, pl := allocTreeSetup(t, par)
		bt := plan.Batch()
		mem := dram.MustSystem(dram.DDR4())
		got := allocsPerRun(t, func() {
			if _, err := e.TimedLookup(store, pl, mem, bt, true); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 4
		if got > budget {
			t.Errorf("TimedLookup(batch=32, Parallelism=%d): %.0f allocs/op, budget %d", par, got, budget)
		}
	}
}

// allocTreeSetup mirrors benchTreeSetup for tests: one batch-32 hardware
// batch against the default 31-PE tree.
func allocTreeSetup(t *testing.T, par int) (*Engine, *batch.Plan, *embedding.Store, modBenchPlacement) {
	t.Helper()
	cfg := Default()
	cfg.VectorDim = 32
	cfg.Parallelism = par
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: 32, QuerySize: 16, Rows: 1 << 16, Dist: embedding.Zipf, ZipfS: 1.3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := batch.Build(gen.Batch(tensor.OpSum), true)
	store := embedding.MustStore(1<<16, 32, 3)
	return e, plan, store, modBenchPlacement{ranks: 32, bytes: 128}
}
