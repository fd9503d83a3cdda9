package oracle

import (
	"testing"

	"fafnir/internal/cpu"
	"fafnir/internal/dram"
	"fafnir/internal/recnmp"
	"fafnir/internal/sim"
	"fafnir/internal/tensordimm"
)

// TestBaselinesAreStationary replays one batch 1,001 times through each
// baseline engine on one memory: the last replay must cost what the first
// did within Stationary's bracket, because every engine issues at the
// memory's clock instead of queueing behind replays already finished.
// RecNMP's rank caches are emptied before each replay: cache warmth is
// engine state, not memory time. (The tree's own replays are in the sweep's
// CheckCycleSanity.)
func TestBaselinesAreStationary(t *testing.T) {
	env, err := GenWorkload(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	b := env.Batch
	b.Queries = b.Queries[:min(8, len(b.Queries))]
	ceng, err := cpu.NewEngine(cpu.Default())
	if err != nil {
		t.Fatal(err)
	}
	rcfg := recnmp.Default()
	rcfg.VectorBytes = env.Layout.VectorBytes()
	reng, err := recnmp.NewEngine(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := tensordimm.Default()
	tcfg.VectorBytes = env.Layout.VectorBytes()
	teng, err := tensordimm.NewEngine(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name string
		run  func(*dram.System) (sim.Cycle, int, error)
	}{
		{"cpu", func(m *dram.System) (sim.Cycle, int, error) {
			r, err := ceng.TimedLookup(env.Store, env.Layout, m, b)
			if err != nil {
				return 0, 0, err
			}
			return r.TotalCycles, r.MemoryReads, nil
		}},
		{"recnmp", func(m *dram.System) (sim.Cycle, int, error) {
			reng.ResetCaches()
			r, err := reng.TimedLookup(env.Store, env.Layout, m, b)
			if err != nil {
				return 0, 0, err
			}
			return r.TotalCycles, r.MemoryReads, nil
		}},
		{"tensordimm", func(m *dram.System) (sim.Cycle, int, error) {
			r, err := teng.TimedLookup(env.Store, m, b)
			if err != nil {
				return 0, 0, err
			}
			return r.TotalCycles, r.MemoryReads, nil
		}},
	} {
		t.Run(eng.name, func(t *testing.T) {
			mem := env.NewMem()
			first, reads, err := eng.run(mem)
			if err != nil {
				t.Fatal(err)
			}
			last := first
			for i := 1; i < 1001; i++ {
				if last, _, err = eng.run(mem); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("replay 1: %d cycles, replay 1001: %d cycles, %d reads", first, last, reads)
			if err := Stationary(env.Mem, reads, first, last); err != nil {
				t.Fatal(err)
			}
		})
	}
}
