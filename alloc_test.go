//go:build !race

package fafnir

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestLookupAllocs256 pins one 256-query System.Lookup (the embed_direct
// shape of benchmark/: eight hardware batches). testing.AllocsPerRun runs it
// at GOMAXPROCS 1, so the passes run inline on the caller. The lookup
// allocates its result, the 256 output slots and one float slab behind them:
// 3 allocs/op and about 1.05x the 128 KB of output vectors, measured on 2
// CPUs. Every plan, tree scratch and timing slice has an owner and is
// reused. The budget was 317 (half of the 635 allocs/op measured at commit
// d00e832) until the scratch had owners; at commit ba275ae the lookup made
// 66 allocs and ~495 KB.
func TestLookupAllocs256(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budgets are not short-mode material")
	}
	sys, err := NewSystem(SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.GenerateBatch(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func() {
		if _, err := sys.Lookup(b); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	lookup()
	const maxAllocs = 4
	got := testing.AllocsPerRun(10, lookup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for range runs {
		lookup()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	outBytes := float64(len(b.Queries) * sys.Dim() * 4)
	t.Logf("System.Lookup(256 queries): %.0f allocs/op, %.2fx the output bytes", got, bytes/outBytes)
	if got > maxAllocs {
		t.Errorf("System.Lookup(256 queries): %.0f allocs/op, budget %d", got, maxAllocs)
	}
	if bytes > 1.3*outBytes {
		t.Errorf("System.Lookup(256 queries): %.0f B/op, budget 1.3x the %.0f output bytes", bytes, outBytes)
	}
}
