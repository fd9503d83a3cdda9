package dram

import (
	"strings"
	"testing"

	"fafnir/internal/fault"
)

// TestCounterNames pins the documented "dram." names to their fields: every
// name reads back the one field it was set through, and nothing else does.
func TestCounterNames(t *testing.T) {
	c := Counters{
		Reads: 1, Bursts: 2, Bytes: 3, BytesToHost: 4,
		RowHits: 5, RowMisses: 6, RowConflicts: 7,
		RefreshDelays: 8, FailedRankReads: 9,
		Writes: 10, BytesWritten: 11,
	}
	names := []string{
		"dram.reads", "dram.bursts", "dram.bytes", "dram.bytes_to_host",
		"dram.row_hits", "dram.row_misses", "dram.row_conflicts",
		"dram.refresh_delays", "dram.failed_rank_reads",
		"dram.writes", "dram.bytes_written",
	}
	if len(names) != len(counterFields) {
		t.Fatalf("%d documented names, %d counter fields", len(names), len(counterFields))
	}
	for i, name := range names {
		if got := c.Counter(name); got != uint64(i+1) {
			t.Errorf("Counter(%q) = %d, want %d", name, got, i+1)
		}
	}
	for _, name := range []string{"", "reads", "dram.channel_reservations", "dram.Reads"} {
		if got := c.Counter(name); got != 0 {
			t.Errorf("Counter(%q) = %d, want 0 for an unknown name", name, got)
		}
	}
}

func TestCountersSubIsOneReadsFootprint(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	s.Read(0, 0, 512, DestLocal)
	s.Write(0, cfg.MustEncode(1, 0), 512)
	before := s.Stats()
	// Same slot again, to the host: one row hit of eight bursts.
	s.Read(0, 0, 512, DestHost)
	got := s.Stats().Sub(before)
	want := Counters{Reads: 1, Bursts: 8, Bytes: 512, BytesToHost: 512, RowHits: 1}
	if got != want {
		t.Fatalf("footprint = %+v, want %+v", got, want)
	}
	if before.Reads != 1 {
		t.Fatalf("snapshot moved with the system: %+v", before)
	}
}

// TestCountersAddInvertsSub: Add sums every field, and Sub takes the
// addend back off.
func TestCountersAddInvertsSub(t *testing.T) {
	var a, b Counters
	for i, f := range counterFields {
		*f.at(&a) = uint64(i + 1)
		*f.at(&b) = uint64(100 * (i + 1))
	}
	sum := a.Add(b)
	for i, f := range counterFields {
		if got := *f.at(&sum); got != uint64(101*(i+1)) {
			t.Errorf("%s = %d, want %d", f.name, got, 101*(i+1))
		}
	}
	if sum.Sub(b) != a {
		t.Fatalf("(a + b) - b = %+v, want %+v", sum.Sub(b), a)
	}
}

func TestCountersStringOmitsZeros(t *testing.T) {
	if got := (Counters{}).String(); got != "" {
		t.Fatalf("zero counters render %q", got)
	}
	got := Counters{Reads: 3, RowMisses: 2}.String()
	if lines := strings.Count(got, "\n"); lines != 2 {
		t.Fatalf("want 2 lines, got %d:\n%s", lines, got)
	}
	for _, want := range []string{"dram.reads", " 3\n", "dram.row_misses", " 2\n"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
	if strings.Contains(got, "dram.row_hits") {
		t.Fatalf("zero counter rendered:\n%s", got)
	}
}

func TestResetZeroesCounters(t *testing.T) {
	s := MustSystem(DDR4())
	s.Read(0, 0, 512, DestHost)
	s.Write(0, 0, 64)
	s.Reset()
	if got := s.Stats(); got != (Counters{}) {
		t.Fatalf("counters survived reset: %+v", got)
	}
}

func TestFailedRankReadsCounted(t *testing.T) {
	s := MustSystem(DDR4())
	inj, err := fault.NewInjector(fault.Plan{RankFailures: []fault.RankFailure{{Rank: 0}}}, 32)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachFaults(inj)
	if _, err := s.ReadChecked(0, 0, 512, DestLocal); err == nil {
		t.Fatal("read of a dark rank succeeded")
	}
	if got := s.Stats(); got != (Counters{FailedRankReads: 1}) {
		t.Fatalf("counters = %+v, want one failed rank read and nothing else", got)
	}
}
