//go:build !race

package router

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// A steady-state router batch allocates the result it returns — the
// TimedResult, the output slots and one float slab behind them — plus what
// dispatch spends on its worker goroutines. Every other per-batch structure
// (the scatter, the flight, the rnet node state, the shards' sub-results and
// partial pools, the engines' plans and scratches) has an owner and is
// reused. Two numbers pin that:
//
//   - testing.AllocsPerRun runs at GOMAXPROCS 1, where dispatch starts no
//     goroutine and allocates nothing, so the count is the batch's own and
//     is exact;
//   - a run at the ambient GOMAXPROCS, counted through runtime.MemStats,
//     holds the acceptance bound that BenchmarkFleetLookup4Shards and
//     BenchmarkFederationLookup are read against, goroutines included.
//
// Before the scratch had owners the benchmarks read 175 allocs/op (fleet)
// and 320 allocs/op, 78 KB/op (federation) at commit ba275ae on 2 CPUs.

// routerAllocs returns the steady-state allocations of lookup at GOMAXPROCS
// 1, and the allocations and bytes per call at the ambient GOMAXPROCS.
func routerAllocs(t *testing.T, lookup func()) (serial, ambient, kb float64) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 4 {
		lookup() // grow every scratch to the workload
	}
	serial = testing.AllocsPerRun(20, lookup)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		lookup()
	}
	runtime.ReadMemStats(&after)
	ambient = float64(after.Mallocs-before.Mallocs) / runs
	kb = float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	return serial, ambient, kb
}

// TestFleetLookupAllocs pins BenchmarkFleetLookup4Shards' workload.
func TestFleetLookupAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budgets are not short-mode material")
	}
	f, err := New(Config{Shards: 4, RanksPerShard: 8, Rows: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := f.GenerateBatch(benchBatchSize(), 1)
	if err != nil {
		t.Fatal(err)
	}
	serial, ambient, kb := routerAllocs(t, func() {
		if _, err := f.Lookup(batch); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("fleet Lookup: %.0f allocs/op serial, %.1f allocs/op and %.1f KB/op at GOMAXPROCS %d",
		serial, ambient, kb, runtime.GOMAXPROCS(0))
	// The result, its output slots and their slab.
	const serialBudget, ambientBudget = 3, 40
	if serial > serialBudget {
		t.Errorf("fleet Lookup at GOMAXPROCS 1: %.0f allocs/op, budget %d", serial, serialBudget)
	}
	if ambient > ambientBudget {
		t.Errorf("fleet Lookup: %.1f allocs/op, budget %d", ambient, ambientBudget)
	}
}

// TestFederationLookupAllocs pins BenchmarkFederationLookup's workload: 2
// fleets x 4 shards, 8-query batches. Its reply is 8 vectors of 128
// float32, 4 KB.
func TestFederationLookupAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budgets are not short-mode material")
	}
	fd, batches := federationBench(t)
	i := 0
	serial, ambient, kb := routerAllocs(t, func() {
		if _, err := fd.Lookup(batches[i%len(batches)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("federation Lookup: %.0f allocs/op serial, %.1f allocs/op and %.1f KB/op at GOMAXPROCS %d",
		serial, ambient, kb, runtime.GOMAXPROCS(0))
	// The result, its output slots and their slab: a member fleet's result
	// is its own reused storage, and no tier's dispatch allocates serially.
	const serialBudget, ambientBudget, kbBudget = 3, 40, 16
	if serial > serialBudget {
		t.Errorf("federation Lookup at GOMAXPROCS 1: %.0f allocs/op, budget %d", serial, serialBudget)
	}
	if ambient > ambientBudget || kb > kbBudget {
		t.Errorf("federation Lookup: %.1f allocs/op and %.1f KB/op, budget %d allocs and %d KB", ambient, kb, ambientBudget, kbBudget)
	}
}
