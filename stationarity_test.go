package fafnir

import (
	"testing"

	"fafnir/internal/oracle"
	"fafnir/internal/sim"
)

// stationarityLookups is how far the stationarity tests replay: lookup 1
// against lookup 1,001 on one memory.
const stationarityLookups = 1001

// TestSystemIsStationary replays one batch through Lookup, LookupInteractive
// and SpMV on one System with no ResetMemory in between: the 1,001st call
// must cost what the first did, up to the bracket of row state and refresh
// (oracle.Stationary), because every call issues at the memory's
// own clock instead of queueing behind calls that already finished.
func TestSystemIsStationary(t *testing.T) {
	sys, err := NewSystem(SystemConfig{RowsPerTable: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.GenerateBatch(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := GraphMatrix(256, 4, 7)
	x := DenseOperand(256, 8)
	for _, mode := range []struct {
		name string
		run  func() (sim.Cycle, error)
	}{
		{"Lookup", func() (sim.Cycle, error) {
			r, err := sys.Lookup(b)
			if err != nil {
				return 0, err
			}
			return r.TotalCycles, nil
		}},
		{"LookupInteractive", func() (sim.Cycle, error) {
			r, err := sys.LookupInteractive(b)
			if err != nil {
				return 0, err
			}
			return r.TotalCycles, nil
		}},
		{"SpMV", func() (sim.Cycle, error) {
			r, err := sys.SpMV(m, x)
			if err != nil {
				return 0, err
			}
			return r.TotalCycles, nil
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sys.ResetMemory()
			var first, last sim.Cycle
			var accesses uint64
			for i := 0; i < stationarityLookups; i++ {
				before := sys.MemoryCounters()
				c, err := mode.run()
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = c
					after := sys.MemoryCounters()
					accesses = after.Reads + after.Writes - before.Reads - before.Writes
				}
				last = c
			}
			t.Logf("call 1: %d cycles, call %d: %d cycles, %d accesses", first, stationarityLookups, last, accesses)
			if err := oracle.Stationary(sys.mcfg, int(accesses), first, last, 200); err != nil {
				t.Fatal(err)
			}
		})
	}
}
