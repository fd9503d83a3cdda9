package router

import (
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/oracle"
	"fafnir/internal/tensor"
)

// TestTiersAreStationary replays one batch 1,001 times through a fleet and a
// federation: batch 1,001 must cost what batch 1 did within
// oracle.Stationary's bracket, because every shard issues at the tier's one
// clock (or when its memory is next free) instead of queueing behind
// batches that already finished.
func TestTiersAreStationary(t *testing.T) {
	fleet := testFleet(t, nil)
	fd := testFederation(t, nil)
	b := testBatch(t, fleet, 8, 1, tensor.OpSum)
	for _, tc := range []struct {
		name   string
		lookup func(embedding.Batch) (*core.TimedResult, error)
		mcfg   dram.Config
	}{
		{"fleet", fleet.Lookup, fleet.mcfg},
		{"federation", fd.Lookup, fd.mcfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, err := tc.lookup(b)
			if err != nil {
				t.Fatal(err)
			}
			last := first
			for i := 1; i < 1001; i++ {
				if last, err = tc.lookup(b); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("batch 1: %d cycles, batch 1001: %d cycles, %d reads", first.TotalCycles, last.TotalCycles, first.MemoryReads)
			if err := oracle.Stationary(tc.mcfg, first.MemoryReads, first.TotalCycles, last.TotalCycles, 200); err != nil {
				t.Fatal(err)
			}
		})
	}
}
