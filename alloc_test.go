//go:build !race

package fafnir

import (
	"runtime/debug"
	"testing"
)

// TestLookupAllocs256 pins one 256-query System.Lookup (the embed_direct
// shape of benchmark/: eight hardware batches at the default Parallelism) at
// no more than half the allocations it made while System.Lookup re-ran the
// golden reference on the caller after the engine: 635 allocs/op, measured
// at commit d00e832 on 2 CPUs. The race build randomizes sync.Pool and is
// excluded.
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
		sys.ResetMemory()
		if _, err := sys.Lookup(b); err != nil {
			t.Fatal(err)
		}
	}
	// A collection mid-measurement empties the pooled scratches, which is pool
	// behaviour under memory pressure, not the lookup's allocation rate.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	lookup()
	const parent = 635
	got := testing.AllocsPerRun(10, lookup)
	t.Logf("System.Lookup(256 queries): %.0f allocs/op", got)
	if got > parent/2 {
		t.Errorf("System.Lookup(256 queries): %.0f allocs/op, budget %d (half of %d)", got, parent/2, parent)
	}
}
