package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fafnir/internal/sim"
)

// refStream is a stream as a loop of top-level requests: Encode each slot,
// then Read or Write it, issued when the previous slot completes.
func refStream(s *System, now sim.MemCycle, g int, slot uint64, size int, dest Dest, write bool) (sim.MemCycle, error) {
	done := now
	for ; size > 0; slot++ {
		chunk := min(size, s.cfg.InterleaveBytes)
		addr, err := s.cfg.Encode(g, slot)
		if err != nil {
			return 0, err
		}
		if write {
			done = s.Write(done, addr, chunk)
		} else {
			done = s.Read(done, addr, chunk, dest)
		}
		size -= chunk
	}
	return done, nil
}

// A stream walks its slots in place, decoding only the first, and lands on
// the cycles, counters and log records of the per-slot loop: seeded random
// streams of both directions and destinations, on both memories and both
// page policies, with and without a log.
func TestStreamMatchesPerSlotLoop(t *testing.T) {
	for _, mem := range []struct {
		name string
		cfg  Config
	}{{"ddr4", DDR4()}, {"hbm2", HBM2()}} {
		for _, closed := range []bool{false, true} {
			for _, logged := range []bool{false, true} {
				cfg := mem.cfg
				cfg.ClosedPage = closed
				name := fmt.Sprintf("%s/closed=%v/log=%v", mem.name, closed, logged)
				t.Run(name, func(t *testing.T) { checkStreams(t, cfg, logged, 1500) })
			}
		}
	}
}

func checkStreams(t *testing.T, cfg Config, logged bool, steps int) {
	got, want := MustSystem(cfg), MustSystem(cfg)
	if logged {
		got.AttachLog(&AccessLog{})
		want.AttachLog(&AccessLog{})
	}
	rng := rand.New(rand.NewSource(int64(steps) + int64(cfg.TotalRanks())))
	var clock sim.MemCycle
	for step := 0; step < steps; step++ {
		g := rng.Intn(cfg.TotalRanks())
		if rng.Intn(50) == 0 {
			g = cfg.TotalRanks() + rng.Intn(2) // outside the geometry
		}
		slot := uint64(rng.Intn(4096))
		size := rng.Intn(40<<10 + 1)
		clock += sim.MemCycle(rng.Intn(2000))
		dest := Dest(rng.Intn(2))
		write := rng.Intn(3) == 0
		var gotDone, wantDone sim.MemCycle
		var gotErr, wantErr error
		if write {
			gotDone, gotErr = got.StreamWrite(clock, g, slot, size)
		} else {
			gotDone, gotErr = got.StreamRead(clock, g, slot, size, dest)
		}
		wantDone, wantErr = refStream(want, clock, g, slot, size, dest, write)
		at := fmt.Sprintf("step %d (rank %d slot %d, %d B at %d, write=%v dest=%d)", step, g, slot, size, clock, write, dest)
		if (gotErr == nil) != (wantErr == nil) || gotDone != wantDone {
			t.Fatalf("%s: done %d err %v, want %d err %v", at, gotDone, gotErr, wantDone, wantErr)
		}
		if got.Stats() != want.Stats() {
			t.Fatalf("%s: counters %v, want %v", at, got.Stats(), want.Stats())
		}
	}
	if logged && !reflect.DeepEqual(got.Log().Records(), want.Log().Records()) {
		t.Fatalf("log of %d records differs from the per-slot loop's %d", got.Log().Len(), want.Log().Len())
	}
	if want.Stats().Reads == 0 || want.Stats().Writes == 0 || want.Stats().RowConflicts+want.Stats().RowMisses == 0 {
		t.Fatalf("the streams exercised too little: %v", want.Stats())
	}
}

// Reset clears the one bank array in place: it allocates nothing, and a
// reset memory replays a seeded access sequence to the cycles and counters
// of a fresh one.
func TestResetReplaysAsFresh(t *testing.T) {
	cfg := DDR4()
	replay := func(s *System) ([]sim.MemCycle, Counters) {
		rng := rand.New(rand.NewSource(7))
		var out []sim.MemCycle
		for i := 0; i < 400; i++ {
			addr := cfg.MustEncode(rng.Intn(cfg.TotalRanks()), uint64(rng.Intn(1<<14)))
			at := sim.MemCycle(i * 40)
			switch rng.Intn(3) {
			case 0:
				out = append(out, s.Read(at, addr, 64+rng.Intn(1024), Dest(rng.Intn(2))))
			case 1:
				out = append(out, s.Write(at, addr, 512))
			default:
				done, err := s.StreamRead(at, rng.Intn(cfg.TotalRanks()), uint64(rng.Intn(1<<14)), rng.Intn(8<<10), DestLocal)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, done)
			}
		}
		return out, s.Stats()
	}
	wantCycles, wantStats := replay(MustSystem(cfg))
	s := MustSystem(cfg)
	replay(s)
	if allocs := testing.AllocsPerRun(10, s.Reset); allocs != 0 {
		t.Fatalf("Reset allocated %v times, want 0", allocs)
	}
	gotCycles, gotStats := replay(s)
	if !reflect.DeepEqual(gotCycles, wantCycles) || gotStats != wantStats {
		t.Fatalf("a reset memory replayed to %v, a fresh one to %v", gotStats, wantStats)
	}
}
