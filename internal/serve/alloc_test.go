//go:build !race

package serve_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestColdSubmitAllocs pins what one serve_cold-shaped Submit (see
// coldServe) allocates once the cache is full. While the fill synthesized
// every missed row a second time through the store, it measured 201 allocs
// and 85.4 KB per Submit (commit a1d96e6, 2 CPUs); copying the rows the
// engine's leaf reads staged measured 74 allocs and 21.7 KB. The race build
// randomizes sync.Pool and is excluded.
func TestColdSubmitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budgets are not short-mode material")
	}
	const maxAllocs, maxKB = 110, 40
	co, reqs := coldServe(t)
	defer co.Close(context.Background())
	i := 0
	submit := func() {
		if _, err := co.Submit(context.Background(), reqs[i%len(reqs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Fill every CLOCK slot first: a slot allocates its row once, on first
	// use. A collection mid-measurement would empty the engine's pooled
	// scratches, which is pool behaviour, not the Submit's.
	for range 200 {
		submit()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, submit)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for range runs {
		submit()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("cold Submit: %.0f allocs, %.1f KB", allocs, kb)
	if allocs > maxAllocs || kb > maxKB {
		t.Errorf("cold Submit: %.0f allocs and %.1f KB, budget %d allocs and %d KB", allocs, kb, maxAllocs, maxKB)
	}
}
