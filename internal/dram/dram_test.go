package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fafnir/internal/sim"
)

func TestDDR4Valid(t *testing.T) {
	cfg := DDR4()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.TotalRanks() != 32 {
		t.Fatalf("TotalRanks = %d, want 32", cfg.TotalRanks())
	}
	if cfg.RanksPerChannel() != 8 {
		t.Fatalf("RanksPerChannel = %d, want 8", cfg.RanksPerChannel())
	}
}

// TestDDR4Ranks pins the geometry of every rank count a caller passes today
// (the System and router even counts, Fig. 12's 1..32 sweep, the oracle's
// 8/16/32) to what each caller's own switch used to build, field for field.
func TestDDR4Ranks(t *testing.T) {
	for _, tc := range []struct{ ranks, channels, dimms, perDIMM int }{
		{1, 1, 1, 1}, {2, 1, 1, 2}, {3, 1, 1, 3}, {4, 1, 2, 2}, {6, 1, 3, 2},
		{8, 1, 4, 2}, {12, 1, 6, 2}, {16, 2, 4, 2}, {24, 3, 4, 2}, {32, 4, 4, 2}, {64, 8, 4, 2},
	} {
		got, err := DDR4Ranks(tc.ranks)
		if err != nil {
			t.Fatalf("ranks=%d: %v", tc.ranks, err)
		}
		want := DDR4()
		want.Channels, want.DIMMsPerChannel, want.RanksPerDIMM = tc.channels, tc.dimms, tc.perDIMM
		if got != want {
			t.Errorf("ranks=%d: geometry %+v, want %+v", tc.ranks, got, want)
		}
		if err := got.Validate(); err != nil || got.TotalRanks() != tc.ranks {
			t.Errorf("ranks=%d: Validate = %v, TotalRanks = %d", tc.ranks, err, got.TotalRanks())
		}
	}
	if got, _ := DDR4Ranks(32); got != DDR4() {
		t.Errorf("32 ranks is not the paper default: %+v", got)
	}
	for _, n := range []int{0, -8} {
		if _, err := DDR4Ranks(n); err == nil {
			t.Errorf("DDR4Ranks(%d) did not error", n)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := DDR4()
	mutations := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.DIMMsPerChannel = -1 },
		func(c *Config) { c.RanksPerDIMM = 0 },
		func(c *Config) { c.BanksPerRank = 0 },
		func(c *Config) { c.RowBytes = 0 },
		func(c *Config) { c.BurstBytes = 0 },
		func(c *Config) { c.InterleaveBytes = 32 },  // < burst
		func(c *Config) { c.RowBytes = 1000 },       // not multiple of interleave
		func(c *Config) { c.InterleaveBytes = 100 }, // not multiple of burst
	}
	for i, m := range mutations {
		cfg := base
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewSystemErrorsOnInvalid(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Fatal("NewSystem accepted invalid config")
	}
}

func TestGlobalRankRoundTrip(t *testing.T) {
	cfg := DDR4()
	for g := 0; g < cfg.TotalRanks(); g++ {
		loc := cfg.RankLocation(g)
		if back := cfg.GlobalRank(loc); back != g {
			t.Fatalf("rank %d -> %+v -> %d", g, loc, back)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := DDR4()
	for g := 0; g < cfg.TotalRanks(); g += 7 {
		for slot := uint64(0); slot < 200; slot += 13 {
			addr := cfg.MustEncode(g, slot)
			loc := cfg.Decode(addr)
			if got := cfg.GlobalRank(loc); got != g {
				t.Fatalf("Encode(%d,%d)=%d decoded to rank %d", g, slot, addr, got)
			}
		}
	}
}

func TestEncodeErrorsOutOfRange(t *testing.T) {
	cfg := DDR4()
	if _, err := cfg.Encode(cfg.TotalRanks(), 0); err == nil {
		t.Fatal("Encode accepted out-of-range rank")
	}
	if _, err := cfg.Encode(-1, 0); err == nil {
		t.Fatal("Encode accepted negative rank")
	}
}

func TestDecodeConsecutiveSlotsRotateRanks(t *testing.T) {
	cfg := DDR4()
	// Per Fig. 4b, consecutive 512 B vectors land on consecutive ranks.
	for i := 0; i < cfg.TotalRanks()*2; i++ {
		addr := Addr(i * cfg.InterleaveBytes)
		loc := cfg.Decode(addr)
		if got := cfg.GlobalRank(loc); got != i%cfg.TotalRanks() {
			t.Fatalf("slot %d on rank %d, want %d", i, got, i%cfg.TotalRanks())
		}
	}
}

func TestReadLatencyRowMissThenHit(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	// First read of a closed bank: tRCD + tCAS + tBurst for one burst.
	done := s.Read(0, 0, cfg.BurstBytes, DestLocal)
	want := cfg.TRCD + cfg.TCAS + cfg.TBurst
	if done != want {
		t.Fatalf("first read done at %d, want %d", done, want)
	}
	if s.Stats().Counter("dram.row_misses") != 1 {
		t.Fatal("expected one row miss")
	}
	// Second read of the same row: row hit, no tRCD.
	done2 := s.Read(done, Addr(cfg.BurstBytes), cfg.BurstBytes, DestLocal)
	if hitLat := done2 - done; hitLat != cfg.TCAS+cfg.TBurst {
		t.Fatalf("hit latency %d, want %d", hitLat, cfg.TCAS+cfg.TBurst)
	}
	if s.Stats().Counter("dram.row_hits") != 1 {
		t.Fatal("expected one row hit")
	}
}

func TestReadRowConflict(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	// Two rows of the same bank: slots within a rank stripe rows across
	// banks; the same bank repeats every BanksPerRank rows. Each row holds
	// RowBytes/InterleaveBytes slots.
	slotsPerRow := uint64(cfg.RowBytes / cfg.InterleaveBytes)
	sameBankSlot := slotsPerRow * uint64(cfg.BanksPerRank)
	a1 := cfg.MustEncode(0, 0)
	a2 := cfg.MustEncode(0, sameBankSlot)
	if l1, l2 := cfg.Decode(a1), cfg.Decode(a2); l1.Bank != l2.Bank || l1.Row == l2.Row {
		t.Fatalf("slot construction wrong: %+v vs %+v", l1, l2)
	}
	end1 := s.Read(0, a1, cfg.BurstBytes, DestLocal)
	s.Read(end1, a2, cfg.BurstBytes, DestLocal)
	if s.Stats().Counter("dram.row_conflicts") != 1 {
		t.Fatalf("conflicts = %d, want 1", s.Stats().Counter("dram.row_conflicts"))
	}
}

func TestRankParallelism(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	// Reads to two different ranks issued at the same cycle complete at the
	// same cycle: no serialization across ranks.
	d0 := s.Read(0, cfg.MustEncode(0, 0), 512, DestLocal)
	d1 := s.Read(0, cfg.MustEncode(1, 0), 512, DestLocal)
	if d0 != d1 {
		t.Fatalf("parallel rank reads finished at %d and %d", d0, d1)
	}
}

func TestSameRankSerializesOnPins(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	d0 := s.Read(0, cfg.MustEncode(0, 0), 512, DestLocal)
	d1 := s.Read(0, cfg.MustEncode(0, 1), 512, DestLocal)
	if d1 <= d0 {
		t.Fatalf("second read on same rank finished at %d, first at %d", d1, d0)
	}
}

func TestHostDestinationUsesChannelBus(t *testing.T) {
	cfg := DDR4()
	sLocal := MustSystem(cfg)
	sHost := MustSystem(cfg)
	// Two ranks on the same channel, both streaming to the host, must
	// serialize on the channel bus; locally they complete in parallel.
	ld0 := sLocal.Read(0, cfg.MustEncode(0, 0), 512, DestLocal)
	ld1 := sLocal.Read(0, cfg.MustEncode(1, 0), 512, DestLocal)
	hd0 := sHost.Read(0, cfg.MustEncode(0, 0), 512, DestHost)
	hd1 := sHost.Read(0, cfg.MustEncode(1, 0), 512, DestHost)
	if ld0 != ld1 {
		t.Fatal("local reads did not overlap")
	}
	if hd1 <= hd0 {
		t.Fatalf("host reads did not serialize: %d then %d", hd0, hd1)
	}
	if sHost.Stats().Counter("dram.bytes_to_host") != 1024 {
		t.Fatalf("bytes_to_host = %d", sHost.Stats().Counter("dram.bytes_to_host"))
	}
	if sLocal.Stats().Counter("dram.bytes_to_host") != 0 {
		t.Fatal("local read counted as host bytes")
	}
}

func TestReadZeroSize(t *testing.T) {
	s := MustSystem(DDR4())
	if done := s.Read(42, 0, 0, DestLocal); done != 42 {
		t.Fatalf("zero-size read advanced time to %d", done)
	}
}

func TestReadSpanningSlots(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	// A read of two interleave slots touches two ranks.
	s.Read(0, 0, 2*cfg.InterleaveBytes, DestLocal)
	if s.RankFreeAt(0) == 0 || s.RankFreeAt(1) == 0 || s.RankFreeAt(2) != 0 {
		t.Fatalf("rank pins free at %d, %d, %d; want ranks 0 and 1 busy, rank 2 idle",
			s.RankFreeAt(0), s.RankFreeAt(1), s.RankFreeAt(2))
	}
	if got := s.Stats().Reads; got != 2 {
		t.Fatalf("reads = %d, want one per slot piece (2)", got)
	}
}

func TestTransferCycles(t *testing.T) {
	cfg := DDR4()
	if got := cfg.TransferCycles(512); got != sim.Cycle(8)*cfg.TBurst {
		t.Fatalf("TransferCycles(512) = %d", got)
	}
	if got := cfg.TransferCycles(1); got != cfg.TBurst {
		t.Fatalf("TransferCycles(1) = %d", got)
	}
}

func TestStreamReadRowFriendly(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	// Streaming 16 consecutive slots of one rank: only one activate per row.
	slots := 16
	if _, err := s.StreamRead(0, 0, 0, slots*cfg.InterleaveBytes, DestLocal); err != nil {
		t.Fatal(err)
	}
	slotsPerRow := cfg.RowBytes / cfg.InterleaveBytes
	wantActivates := uint64((slots + slotsPerRow - 1) / slotsPerRow)
	gotActivates := s.Stats().Counter("dram.row_misses") + s.Stats().Counter("dram.row_conflicts")
	if gotActivates != wantActivates {
		t.Fatalf("activates = %d, want %d", gotActivates, wantActivates)
	}
}

func TestReset(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	s.Read(0, 0, 512, DestHost)
	s.Reset()
	if s.Stats().Counter("dram.reads") != 0 {
		t.Fatal("stats survived reset")
	}
	if s.ChannelFreeAt(0) != 0 || s.RankFreeAt(0) != 0 {
		t.Fatal("resources survived reset")
	}
	// First read after reset is a fresh row miss again.
	s.Read(0, 0, 64, DestLocal)
	if s.Stats().Counter("dram.row_misses") != 1 {
		t.Fatal("row state survived reset")
	}
}

// Property: Decode of Encode always returns the requested rank, and the
// column always lies inside the row.
func TestQuickEncodeDecode(t *testing.T) {
	cfg := DDR4()
	f := func(rank uint8, slot uint16) bool {
		g := int(rank) % cfg.TotalRanks()
		addr := cfg.MustEncode(g, uint64(slot))
		loc := cfg.Decode(addr)
		if cfg.GlobalRank(loc) != g {
			return false
		}
		return loc.Col >= 0 && loc.Col < cfg.RowBytes && loc.Bank < cfg.BanksPerRank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion time is never before the issue time, and issuing the
// same read later never completes earlier.
func TestQuickReadMonotone(t *testing.T) {
	cfg := DDR4()
	f := func(rank uint8, slot uint8, delay uint8) bool {
		g := int(rank) % cfg.TotalRanks()
		addr := cfg.MustEncode(g, uint64(slot))
		s1 := MustSystem(cfg)
		d1 := s1.Read(0, addr, 512, DestLocal)
		s2 := MustSystem(cfg)
		d2 := s2.Read(sim.Cycle(delay), addr, 512, DestLocal)
		return d1 >= 0 && d2 >= sim.Cycle(delay) && d2 >= d1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

func TestHBM2Config(t *testing.T) {
	cfg := HBM2()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// 32 pseudo channels, each its own rank and bus.
	if cfg.TotalRanks() != 32 {
		t.Fatalf("TotalRanks = %d, want 32", cfg.TotalRanks())
	}
	if cfg.Channels != 32 {
		t.Fatalf("Channels = %d, want 32", cfg.Channels)
	}
	// Same 512 B gather spread over HBM is faster than over DDR4 (more
	// channel buses, faster clock relative to the 200 MHz reporting base).
	ddr := MustSystem(DDR4())
	hbm := MustSystem(cfg)
	var ddrDone, hbmDone sim.Cycle
	for r := 0; r < 32; r++ {
		ddrDone = sim.Max(ddrDone, ddr.Read(0, DDR4().MustEncode(r, 0), 512, DestHost))
		hbmDone = sim.Max(hbmDone, hbm.Read(0, cfg.MustEncode(r, 0), 512, DestHost))
	}
	ddrSec := sim.Seconds(ddrDone, DDR4().ClockMHz)
	hbmSec := sim.Seconds(hbmDone, cfg.ClockMHz)
	if hbmSec >= ddrSec {
		t.Fatalf("HBM gather %.2e s not faster than DDR4 %.2e s", hbmSec, ddrSec)
	}
}

func TestClosedPagePolicy(t *testing.T) {
	cfg := DDR4()
	cfg.ClosedPage = true
	s := MustSystem(cfg)
	// Two back-to-back reads of the same row: second one is NOT a hit
	// under closed-page.
	s.Read(0, 0, cfg.BurstBytes, DestLocal)
	s.Read(100, Addr(cfg.BurstBytes), cfg.BurstBytes, DestLocal)
	if s.Stats().Counter("dram.row_hits") != 0 {
		t.Fatal("closed-page policy recorded a row hit")
	}
	if s.Stats().Counter("dram.row_misses") != 2 {
		t.Fatalf("misses = %d, want 2", s.Stats().Counter("dram.row_misses"))
	}
}

func TestActivateThrottling(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	// Back-to-back activates to different banks of one rank must respect
	// tRRD and tFAW even though the banks themselves are free.
	slotsPerRow := uint64(cfg.RowBytes / cfg.InterleaveBytes)
	var last sim.Cycle
	const activates = 16
	for i := 0; i < activates; i++ {
		// Each slot lands in a different bank (rows stripe across banks).
		addr := cfg.MustEncode(0, uint64(i)*slotsPerRow)
		last = s.Read(0, addr, cfg.BurstBytes, DestLocal)
	}
	// 16 activates span at least three full tFAW windows regardless of how
	// many banks are free: a_15 >= a_11 + tFAW >= ... >= a_3 + 3*tFAW.
	if min := 3 * cfg.TFAW; last < min {
		t.Fatalf("16 activates completed at %d, below the tFAW floor %d", last, min)
	}
	// And the same pattern without throttling would finish much earlier.
	free := cfg
	free.TRRD = 0
	free.TFAW = 0
	s2 := MustSystem(free)
	var last2 sim.Cycle
	for i := 0; i < activates; i++ {
		addr := free.MustEncode(0, uint64(i)*slotsPerRow)
		last2 = s2.Read(0, addr, free.BurstBytes, DestLocal)
	}
	if last2 >= last {
		t.Fatalf("throttling had no effect: %d vs %d", last2, last)
	}
}

func TestRefreshDelays(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	// An access landing inside the first refresh window is pushed out.
	inWindow := cfg.TREFI + cfg.TRFC/2
	done := s.Read(inWindow, 0, cfg.BurstBytes, DestLocal)
	floor := cfg.TREFI + cfg.TRFC + cfg.TRCD + cfg.TCAS + cfg.TBurst
	if done < floor {
		t.Fatalf("refresh-window read done at %d, want >= %d", done, floor)
	}
	if s.Stats().Counter("dram.refresh_delays") != 1 {
		t.Fatalf("refresh_delays = %d", s.Stats().Counter("dram.refresh_delays"))
	}
	// An access just after the window is unaffected.
	clear := cfg.TREFI + cfg.TRFC + 100
	s2 := MustSystem(cfg)
	done2 := s2.Read(clear, 0, cfg.BurstBytes, DestLocal)
	if done2 != clear+cfg.TRCD+cfg.TCAS+cfg.TBurst {
		t.Fatalf("clear read done at %d", done2)
	}
	if s2.Stats().Counter("dram.refresh_delays") != 0 {
		t.Fatal("clear read counted a refresh delay")
	}
	// Refresh disabled: no delay even inside the nominal window.
	off := cfg
	off.TREFI = 0
	s3 := MustSystem(off)
	done3 := s3.Read(inWindow, 0, off.BurstBytes, DestLocal)
	if done3 != inWindow+off.TRCD+off.TCAS+off.TBurst {
		t.Fatalf("refresh-off read done at %d", done3)
	}
}

func TestRefreshBeforeFirstWindow(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	// Early accesses (before the first TREFI) never see refresh.
	done := s.Read(0, 0, cfg.BurstBytes, DestLocal)
	if done != cfg.TRCD+cfg.TCAS+cfg.TBurst {
		t.Fatalf("early read done at %d", done)
	}
}

func TestWriteBasics(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	done := s.Write(0, 0, 512)
	if done == 0 {
		t.Fatal("write took no time")
	}
	if s.Stats().Counter("dram.writes") != 1 {
		t.Fatalf("writes = %d", s.Stats().Counter("dram.writes"))
	}
	if s.Stats().Counter("dram.bytes_written") != 512 {
		t.Fatalf("bytes_written = %d", s.Stats().Counter("dram.bytes_written"))
	}
	// A write is never also a read; it still opens a row and bursts data.
	want := Counters{Writes: 1, BytesWritten: 512, RowMisses: 1, Bursts: uint64(512 / cfg.BurstBytes)}
	if got := s.Stats(); got != want {
		t.Fatalf("counters after one write = %+v, want %+v", got, want)
	}
	if got := s.Write(5, 0, 0); got != 5 {
		t.Fatalf("zero-size write advanced time to %d", got)
	}
}

func TestStreamWriteOccupiesRank(t *testing.T) {
	cfg := DDR4()
	s := MustSystem(cfg)
	end, err := s.StreamWrite(0, 3, 0, 4*cfg.InterleaveBytes)
	if err != nil {
		t.Fatal(err)
	}
	if end == 0 {
		t.Fatal("stream write took no time")
	}
	if s.RankFreeAt(3) == 0 {
		t.Fatal("rank pins not reserved by writes")
	}
	if s.RankFreeAt(0) != 0 {
		t.Fatal("other rank affected")
	}
	st := s.Stats()
	if st.Reads != 0 || st.Bytes != 0 || st.BytesToHost != 0 {
		t.Fatalf("stream write counted as reads: %+v", st)
	}
	if st.Writes != 4 || st.BytesWritten != uint64(4*cfg.InterleaveBytes) {
		t.Fatalf("writes = %d (%d B), want 4 (%d B)", st.Writes, st.BytesWritten, 4*cfg.InterleaveBytes)
	}
}
