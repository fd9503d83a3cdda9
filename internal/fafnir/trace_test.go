package fafnir

import (
	"bytes"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/fault"
	"fafnir/internal/telemetry"
)

// tracedRun executes one timed lookup with a fresh collector attached and
// returns the exported Chrome JSON plus the run result.
func tracedRun(t *testing.T, par int, faults string) ([]byte, *TimedResult) {
	t.Helper()
	store, b := detWorkload(t, 96) // 3 hardware batches
	pl := modPlacement{ranks: 32, bytes: 64}
	e := parEngine(t, par)
	tr := telemetry.NewTrace()
	e.AttachTracer(tr)
	mem := dram.MustSystem(dram.DDR4())
	mem.AttachTracer(tr)

	var inj *fault.Injector
	if faults != "" {
		plan, err := fault.Parse(faults)
		if err != nil {
			t.Fatal(err)
		}
		inj, err = fault.NewInjector(plan, dram.DDR4().TotalRanks())
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.TimedLookup(store, pl, withFaults(mem, inj), b, true)
	if err != nil {
		t.Fatalf("Parallelism=%d faults=%q: %v", par, faults, err)
	}
	return tr.ChromeJSON(), res
}

// TestTraceDeterministicAcrossParallelism requires the exported trace to be
// bit-identical at Parallelism 1, 2, and NumCPU, on a fault-free plan and on
// a faulted one (ECC retries and PE stalls shift simulated time but must do
// so identically at every worker-pool width).
func TestTraceDeterministicAcrossParallelism(t *testing.T) {
	for _, faults := range []string{"", "ecc=0.005;stall=5+200;seed=9"} {
		var want []byte
		for _, par := range parallelismLevels() {
			got, _ := tracedRun(t, par, faults)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("faults=%q Parallelism=%d: trace diverges from serial run (%d vs %d bytes)",
					faults, par, len(got), len(want))
			}
		}
	}
}

// TestTraceValidatesAndCoversLanes checks the exported stream against the
// structural validator and pins the lane population: one hw_batch span per
// hardware batch on the engine lane, PE stage spans on per-level lanes, and
// DRAM command spans on per-bank lanes.
func TestTraceValidatesAndCoversLanes(t *testing.T) {
	data, res := tracedRun(t, 1, "")
	n, err := telemetry.ValidateChrome(data)
	if err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
	if n == 0 {
		t.Fatal("trace is empty")
	}

	// Re-run to inspect raw events (tracedRun already exported them).
	store, b := detWorkload(t, 96)
	pl := modPlacement{ranks: 32, bytes: 64}
	e := parEngine(t, 1)
	tr := telemetry.NewTrace()
	e.AttachTracer(tr)
	mem := dram.MustSystem(dram.DDR4())
	mem.AttachTracer(tr)
	if _, err := e.TimedLookup(store, pl, mem, b, true); err != nil {
		t.Fatal(err)
	}
	var hwBatches, peStages, dramReads int
	for _, ev := range tr.Events() {
		switch {
		case ev.Name == "hw_batch" && ev.PID == telemetry.PIDEngine:
			hwBatches++
		case ev.Name == "pe.stage" && ev.PID >= telemetry.PIDPELevelBase && ev.PID < telemetry.PIDDRAMBase:
			peStages++
		case ev.Name == "RD" && ev.PID >= telemetry.PIDDRAMBase:
			dramReads++
		}
	}
	if hwBatches != res.HWBatches {
		t.Fatalf("hw_batch spans = %d, want %d", hwBatches, res.HWBatches)
	}
	if peStages == 0 {
		t.Fatal("no PE stage spans emitted")
	}
	if dramReads != res.MemoryReads {
		t.Fatalf("DRAM RD spans = %d, want %d reads", dramReads, res.MemoryReads)
	}
}

// TestTracedMatchesUntraced pins the observational contract: attaching a
// tracer must not change outputs, statistics, or a single cycle — at every
// worker-pool width, fault-free and faulted.
func TestTracedMatchesUntraced(t *testing.T) {
	store, b := detWorkload(t, 96)
	pl := modPlacement{ranks: 32, bytes: 64}

	for _, faults := range []string{"", "ecc=0.005;stall=5+200;seed=9"} {
		for _, par := range parallelismLevels() {
			plain := parEngine(t, par)
			var inj *fault.Injector
			if faults != "" {
				plan, err := fault.Parse(faults)
				if err != nil {
					t.Fatal(err)
				}
				if inj, err = fault.NewInjector(plan, dram.DDR4().TotalRanks()); err != nil {
					t.Fatal(err)
				}
			}
			want, err := plain.TimedLookup(store, pl, withFaults(dram.MustSystem(dram.DDR4()), inj), b, true)
			if err != nil {
				t.Fatal(err)
			}

			_, got := tracedRun(t, par, faults)
			if got.TotalCycles != want.TotalCycles || got.MemCycles != want.MemCycles ||
				got.ComputeCycles != want.ComputeCycles || got.PETotals != want.PETotals ||
				got.MemoryReads != want.MemoryReads {
				t.Fatalf("faults=%q Parallelism=%d: traced run diverges from untraced: %+v vs %+v",
					faults, par, got, want)
			}
			for q := range want.Outputs {
				if !want.Outputs[q].Equal(got.Outputs[q]) {
					t.Fatalf("faults=%q Parallelism=%d: output %d diverges bitwise", faults, par, q)
				}
			}
		}
	}
}

// TestAttachTracerDetach covers the nil re-attachment path the serving layer
// uses per flushed batch: detaching must stop emission without disturbing the
// engine.
func TestAttachTracerDetach(t *testing.T) {
	store, b := detWorkload(t, 32)
	pl := modPlacement{ranks: 32, bytes: 64}
	e := parEngine(t, 1)
	tr := telemetry.NewTrace()
	e.AttachTracer(tr)
	e.AttachTracer(nil)
	if e.Tracer() != nil {
		t.Fatal("Tracer() should be nil after detach")
	}
	if _, err := e.TimedLookup(store, pl, dram.MustSystem(dram.DDR4()), b, true); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("detached tracer collected %d events", tr.Len())
	}
}
