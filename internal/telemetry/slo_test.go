package telemetry

import (
	"testing"
	"time"
)

// sloClock is an injectable test clock for the flight recorder.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time          { return c.t }
func (c *sloClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newSLOClock() *sloClock                { return &sloClock{t: time.Unix(1_000_000, 0)} }
func mustLane(t *testing.T, s SLOSnapshot, name string) LaneSLO {
	t.Helper()
	for _, l := range s.Lanes {
		if l.Lane == name {
			return l
		}
	}
	t.Fatalf("lane %q missing from snapshot %+v", name, s)
	return LaneSLO{}
}

func TestSLOBurnRate(t *testing.T) {
	clk := newSLOClock()
	s := NewSLO(SLOConfig{
		Window:         10 * time.Second,
		Objectives:     map[string]time.Duration{"high": 50 * time.Millisecond},
		BudgetFraction: 0.1,
		Now:            clk.now,
	})

	if got := s.BurnRate("high"); got != 0 {
		t.Fatalf("idle lane burn rate = %v, want 0", got)
	}

	// 9 good + 1 bad over a 0.1 budget: bad fraction 0.1 / budget 0.1 = 1.0,
	// burning exactly at the sustainable rate.
	for i := 0; i < 9; i++ {
		s.Observe("high", uint64(i), 10*time.Millisecond, false, nil)
	}
	s.Observe("high", 9, 500*time.Millisecond, false, nil) // over objective
	if got := s.BurnRate("high"); got != 1.0 {
		t.Fatalf("burn rate = %v, want 1.0", got)
	}

	// A degraded request is bad even when fast.
	s.Observe("high", 10, time.Millisecond, true, nil)
	snap := s.Snapshot()
	lane := mustLane(t, snap, "high")
	if lane.Good != 9 || lane.Bad != 2 {
		t.Fatalf("lane counts good=%d bad=%d, want 9/2", lane.Good, lane.Bad)
	}

	if got := s.BurnRate("nope"); got != 0 {
		t.Fatalf("unknown lane burn rate = %v, want 0", got)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	clk := newSLOClock()
	s := NewSLO(SLOConfig{
		Window:     5 * time.Second,
		Objectives: map[string]time.Duration{"low": time.Second},
		Now:        clk.now,
	})
	s.Observe("low", 1, 2*time.Second, false, nil) // bad
	if got := s.BurnRate("low"); got == 0 {
		t.Fatal("bad request did not register in the window")
	}
	// Past the window the bucket is stale and the lane reads idle again.
	clk.advance(6 * time.Second)
	if got := s.BurnRate("low"); got != 0 {
		t.Fatalf("burn rate after window expiry = %v, want 0", got)
	}
	if lane := mustLane(t, s.Snapshot(), "low"); lane.Good != 0 || lane.Bad != 0 {
		t.Fatalf("stale counts survived expiry: %+v", lane)
	}
}

func TestSLOSlowestRing(t *testing.T) {
	clk := newSLOClock()
	s := NewSLO(SLOConfig{
		Objectives: map[string]time.Duration{"normal": time.Second},
		K:          3,
		Now:        clk.now,
	})
	// Admit in shuffled order; the ring must keep the 3 slowest, descending.
	for _, ms := range []int{5, 40, 10, 30, 20} {
		s.Observe("normal", uint64(ms), time.Duration(ms)*time.Millisecond, false, nil)
	}
	snap := s.Snapshot()
	if len(snap.Slowest) != 3 {
		t.Fatalf("slowest ring holds %d, want 3", len(snap.Slowest))
	}
	for i, wantID := range []uint64{40, 30, 20} {
		if snap.Slowest[i].ID != wantID {
			t.Fatalf("slowest[%d].ID = %d, want %d (ring %+v)", i, snap.Slowest[i].ID, wantID, snap.Slowest)
		}
	}
}

func TestSLODegradedRingKeepsMostRecent(t *testing.T) {
	clk := newSLOClock()
	s := NewSLO(SLOConfig{
		Objectives: map[string]time.Duration{"normal": time.Second},
		K:          2,
		Now:        clk.now,
	})
	for id := uint64(1); id <= 4; id++ {
		s.Observe("normal", id, time.Millisecond, true, "detail")
	}
	snap := s.Snapshot()
	if len(snap.Degraded) != 2 || snap.Degraded[0].ID != 3 || snap.Degraded[1].ID != 4 {
		t.Fatalf("degraded ring = %+v, want IDs [3 4]", snap.Degraded)
	}
	if snap.Degraded[1].Detail != "detail" || snap.Degraded[1].Good {
		t.Fatalf("degraded record lost detail or miscounted: %+v", snap.Degraded[1])
	}
}
