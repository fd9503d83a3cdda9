package fafnir

import (
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/fault"
)

// Every timed producer fills TimedResult.Stages so the named stages sum to
// TotalCycles with no remainder — the contract the serving layer's per-request
// Breakdown relies on. These tests pin it on each single-system path.
func TestStagesSumToTotalEngine(t *testing.T) {
	store, b := detWorkload(t, 96)
	pl := modPlacement{ranks: 32, bytes: 64}
	cases := []struct {
		name, faults string
		dedup        bool
	}{
		{"dedup", "", true},
		{"no-dedup", "", false},
		// modPlacement keeps no replicas, so the faulted case exercises ECC
		// retries and PE stalls rather than a rank kill.
		{"faulted", "ecc=0.005;stall=5+200;seed=9", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := parEngine(t, 1)
			var inj *fault.Injector
			if tc.faults != "" {
				plan, err := fault.Parse(tc.faults)
				if err != nil {
					t.Fatal(err)
				}
				if inj, err = fault.NewInjector(plan, dram.DDR4().TotalRanks()); err != nil {
					t.Fatal(err)
				}
			}
			res, err := e.TimedLookup(store, pl, withFaults(dram.MustSystem(dram.DDR4()), inj), b, tc.dedup)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalCycles == 0 {
				t.Fatal("zero-cycle lookup")
			}
			if got := res.Stages.Sum(); got != res.TotalCycles {
				t.Fatalf("Stages.Sum() = %d, TotalCycles = %d (stages %+v)", got, res.TotalCycles, res.Stages)
			}
		})
	}
}

func TestStagesSumToTotalInteractive(t *testing.T) {
	store, b := detWorkload(t, 8)
	pl := modPlacement{ranks: 32, bytes: 64}
	e := parEngine(t, 1)
	res, err := e.InteractiveLookup(store, pl, dram.MustSystem(dram.DDR4()), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles == 0 {
		t.Fatal("zero-cycle lookup")
	}
	if got := res.Stages.Sum(); got != res.TotalCycles {
		t.Fatalf("Stages.Sum() = %d, TotalCycles = %d (stages %+v)", got, res.TotalCycles, res.Stages)
	}
}
