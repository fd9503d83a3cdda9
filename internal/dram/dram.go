// Package dram models a DDR4 memory system at the granularity the FAFNIR
// paper's arguments depend on: channels, DIMMs, ranks, banks, row buffers,
// and the timing of activates, column reads, and data bursts.
//
// The model is a deterministic resource-reservation simulator. Every bank
// tracks its open row and the cycle at which it can accept the next command;
// every rank tracks when its data pins are free; every channel tracks when
// its shared bus to the host is free. A read request reserves those resources
// in order and returns the cycle at which its last burst of data arrives.
//
// This is intentionally not a full DRAM protocol simulator (no refresh, no
// command-bus contention, no write path): the three effects the paper's
// evaluation hinges on are captured —
//
//  1. rank-level parallelism (distinct ranks serve reads concurrently),
//  2. row-buffer locality (hits cost tCAS, conflicts cost tRP+tRCD+tCAS),
//  3. channel-bus occupancy when data must travel to the host instead of
//     staying at a near-data processor.
package dram

import (
	"fmt"

	"fafnir/internal/fault"
	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
)

// Addr is a physical byte address in the simulated memory space.
type Addr uint64

// Dest says where the data of a read is headed, which determines whether the
// shared channel bus to the host must be reserved.
type Dest uint8

const (
	// DestLocal delivers data to a near-data processor attached at the rank
	// or DIMM (TensorDIMM/RecNMP buffer chips, Fafnir leaf PEs). Only the
	// rank's own data pins are occupied.
	DestLocal Dest = iota
	// DestHost delivers data across the channel to the host CPU, reserving
	// the channel bus for every burst.
	DestHost
)

// Config describes the memory system geometry and timing. All timings are in
// memory-controller cycles.
type Config struct {
	Channels        int
	DIMMsPerChannel int
	RanksPerDIMM    int
	BanksPerRank    int

	// RowBytes is the row-buffer size of one bank.
	RowBytes int
	// BurstBytes is the data delivered by one burst (64 B for DDR4 x64).
	BurstBytes int
	// InterleaveBytes is the rank-interleaving granularity of the address
	// mapping (Fig. 4b maps one 512 B embedding vector per rank slot).
	InterleaveBytes int

	// TRCD is the activate-to-read delay.
	TRCD sim.Cycle
	// TCAS is the read-to-data delay (CL).
	TCAS sim.Cycle
	// TRP is the precharge delay paid on a row conflict.
	TRP sim.Cycle
	// TBurst is the data-bus occupancy of one burst (BL/2 bus cycles).
	TBurst sim.Cycle
	// TRRD is the minimum spacing between two activates on one rank.
	TRRD sim.Cycle
	// TFAW is the four-activate window: at most four activates may issue
	// on one rank within this window. Together with TRRD this throttles
	// row-hostile access patterns (TensorDIMM's column-major reads).
	TFAW sim.Cycle
	// TREFI is the refresh interval: every TREFI cycles each rank stalls
	// for TRFC while a refresh runs (all banks). Zero disables refresh.
	// The first refresh fires at TREFI, so short runs are unaffected.
	TREFI sim.Cycle
	// TRFC is the refresh cycle time (rank busy during a refresh).
	TRFC sim.Cycle

	// ClockMHz is the memory clock, used only for reporting.
	ClockMHz float64

	// ClosedPage, when true, precharges the row after every access instead
	// of keeping it open: accesses never hit or conflict, they always pay
	// a fresh activate. Open-page (the default) is what the paper's
	// row-buffer-locality arguments assume; the closed-page ablation
	// quantifies how much those arguments matter.
	ClosedPage bool
}

// DDR4 returns the paper's target configuration: 4 channels x 4 DIMMs x
// 2 ranks (32 ranks), DDR4-2400-like timing, 8 KB rows, 512 B interleaving.
func DDR4() Config {
	return Config{
		Channels:        4,
		DIMMsPerChannel: 4,
		RanksPerDIMM:    2,
		BanksPerRank:    16,
		RowBytes:        8192,
		BurstBytes:      64,
		InterleaveBytes: 512,
		TRCD:            16,
		TCAS:            16,
		TRP:             16,
		TBurst:          4,
		TRRD:            8,
		TFAW:            40,
		TREFI:           9360, // 7.8 us at 1200 MHz
		TRFC:            420,  // ~350 ns
		ClockMHz:        1200,
	}
}

// DDR4Ranks returns DDR4() resized to n ranks while keeping its per-channel
// shape as far as n allows: n/8 full channels when n is a multiple of 8, one
// channel of n/2 two-rank DIMMs for any other even n, and a single DIMM of
// n ranks when n is odd. It returns an error for n <= 0.
func DDR4Ranks(n int) (Config, error) {
	cfg := DDR4()
	switch {
	case n <= 0:
		return Config{}, fmt.Errorf("dram: rank count must be positive, got %d", n)
	case n%8 == 0:
		cfg.Channels = n / 8
	case n%2 == 0:
		cfg.Channels, cfg.DIMMsPerChannel = 1, n/2
	default:
		cfg.Channels, cfg.DIMMsPerChannel, cfg.RanksPerDIMM = 1, 1, n
	}
	return cfg, nil
}

// HBM2 returns an HBM2-like configuration for the paper's future-work
// integration: the leaf PEs attach to 32 pseudo channels instead of DDR4
// ranks. Each pseudo channel is modelled as one rank on its own channel
// bus, with the higher bank count, smaller rows, and higher clock of HBM.
func HBM2() Config {
	return Config{
		Channels:        32, // pseudo channels
		DIMMsPerChannel: 1,
		RanksPerDIMM:    1,
		BanksPerRank:    16,
		RowBytes:        2048,
		BurstBytes:      32,
		InterleaveBytes: 512,
		TRCD:            14,
		TCAS:            14,
		TRP:             14,
		TBurst:          2,
		TRRD:            4,
		TFAW:            16,
		TREFI:           7020, // 3.9 us at 1800 MHz (2x refresh rate)
		TRFC:            470,  // ~260 ns
		ClockMHz:        1800,
	}
}

// Validate reports a descriptive error when the configuration is unusable.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram: Channels must be positive, got %d", c.Channels)
	case c.DIMMsPerChannel <= 0:
		return fmt.Errorf("dram: DIMMsPerChannel must be positive, got %d", c.DIMMsPerChannel)
	case c.RanksPerDIMM <= 0:
		return fmt.Errorf("dram: RanksPerDIMM must be positive, got %d", c.RanksPerDIMM)
	case c.BanksPerRank <= 0:
		return fmt.Errorf("dram: BanksPerRank must be positive, got %d", c.BanksPerRank)
	case c.RowBytes <= 0:
		return fmt.Errorf("dram: RowBytes must be positive, got %d", c.RowBytes)
	case c.BurstBytes <= 0:
		return fmt.Errorf("dram: BurstBytes must be positive, got %d", c.BurstBytes)
	case c.InterleaveBytes < c.BurstBytes:
		return fmt.Errorf("dram: InterleaveBytes %d smaller than BurstBytes %d", c.InterleaveBytes, c.BurstBytes)
	case c.RowBytes%c.InterleaveBytes != 0:
		return fmt.Errorf("dram: RowBytes %d not a multiple of InterleaveBytes %d", c.RowBytes, c.InterleaveBytes)
	case c.InterleaveBytes%c.BurstBytes != 0:
		return fmt.Errorf("dram: InterleaveBytes %d not a multiple of BurstBytes %d", c.InterleaveBytes, c.BurstBytes)
	}
	return nil
}

// TotalRanks reports the number of ranks in the system.
func (c Config) TotalRanks() int {
	return c.Channels * c.DIMMsPerChannel * c.RanksPerDIMM
}

// RanksPerChannel reports the ranks attached to one channel.
func (c Config) RanksPerChannel() int {
	return c.DIMMsPerChannel * c.RanksPerDIMM
}

// Location is a fully decoded physical address.
type Location struct {
	Channel int
	DIMM    int
	Rank    int // rank within the DIMM
	Bank    int
	Row     int
	Col     int // byte offset within the row
}

// GlobalRank flattens a location's (channel, dimm, rank) into a system-wide
// rank identifier in [0, TotalRanks).
func (c Config) GlobalRank(l Location) int {
	return (l.Channel*c.DIMMsPerChannel+l.DIMM)*c.RanksPerDIMM + l.Rank
}

// RankLocation inverts GlobalRank.
func (c Config) RankLocation(global int) Location {
	r := global % c.RanksPerDIMM
	d := (global / c.RanksPerDIMM) % c.DIMMsPerChannel
	ch := global / (c.RanksPerDIMM * c.DIMMsPerChannel)
	return Location{Channel: ch, DIMM: d, Rank: r}
}

// Decode maps a byte address onto the geometry. The layout follows Fig. 4b:
// the low bits address bytes within one interleave slot (one embedding
// vector), the next bits pick the rank, and the remaining bits walk rows
// within the rank with rows striped across banks.
func (c Config) Decode(addr Addr) Location {
	slotOff := int(addr) % c.InterleaveBytes
	slotIdx := uint64(addr) / uint64(c.InterleaveBytes)
	global := int(slotIdx % uint64(c.TotalRanks()))
	within := slotIdx / uint64(c.TotalRanks())

	slotsPerRow := uint64(c.RowBytes / c.InterleaveBytes)
	rowSeq := within / slotsPerRow
	slotInRow := within % slotsPerRow

	loc := c.RankLocation(global)
	loc.Bank = int(rowSeq % uint64(c.BanksPerRank))
	loc.Row = int(rowSeq / uint64(c.BanksPerRank))
	loc.Col = int(slotInRow)*c.InterleaveBytes + slotOff
	return loc
}

// Encode inverts Decode for slot-aligned addresses: it returns the byte
// address of interleave slot slot within global rank rank. Slot s of rank r
// is the s-th InterleaveBytes-sized block stored in that rank. It returns an
// error for a rank outside the geometry.
func (c Config) Encode(globalRank int, slot uint64) (Addr, error) {
	if globalRank < 0 || globalRank >= c.TotalRanks() {
		return 0, fmt.Errorf("dram: rank %d out of range [0,%d)", globalRank, c.TotalRanks())
	}
	idx := slot*uint64(c.TotalRanks()) + uint64(globalRank)
	return Addr(idx * uint64(c.InterleaveBytes)), nil
}

// MustEncode is Encode for callers with statically valid ranks (tests,
// examples); it panics on error.
func (c Config) MustEncode(globalRank int, slot uint64) Addr {
	a, err := c.Encode(globalRank, slot)
	if err != nil {
		panic(err)
	}
	return a
}

// AccessRecord describes one top-level read request served by the system, as
// seen by the engine that issued it: the issue cycle the caller passed in, the
// completion cycle returned, and the request's address, size, destination, and
// the global rank of its first interleave slot. Conformance checkers replay
// these records to prove access-count properties (e.g. the paper's
// read-each-unique-index-once claim) from the memory system's own evidence
// rather than from engine-reported counters.
type AccessRecord struct {
	Issue sim.Cycle
	Done  sim.Cycle
	Addr  Addr
	Size  int
	Dest  Dest
	Rank  int
}

// AccessLog collects AccessRecords in issue order. Attach one with AttachLog;
// logging is observational only and never perturbs timing. The zero value is
// ready to use. An AccessLog is not safe for concurrent use, matching the
// System it observes.
type AccessLog struct {
	records []AccessRecord
}

// Records returns the collected records in issue order. The slice aliases the
// log's storage; callers must not mutate it.
func (l *AccessLog) Records() []AccessRecord { return l.records }

// Len reports the number of records collected.
func (l *AccessLog) Len() int { return len(l.records) }

// Reset discards all collected records, keeping the capacity.
func (l *AccessLog) Reset() { l.records = l.records[:0] }

// bank tracks one bank's open row and availability.
type bank struct {
	openRow int // -1 when closed
	readyAt sim.Cycle
}

// rank tracks one rank's banks and data pins.
type rank struct {
	banks        []bank
	pinsAt       sim.Cycle    // next cycle the rank data pins are free
	lastActivate sim.Cycle    // previous activate issue time (tRRD)
	activates    [4]sim.Cycle // issue times of the last four activates (tFAW)
	activateIdx  int
}

// System is the simulated memory system. It is not safe for concurrent use.
type System struct {
	cfg       Config
	ranks     []rank
	chanBusAt []sim.Cycle // per-channel host-bus availability
	stats     Counters
	faults    *fault.Injector  // nil when no fault plan is attached
	log       *AccessLog       // nil when no access log is attached
	tracer    telemetry.Tracer // nil when no tracer is attached (see trace.go)
	// namedRank/namedBank defer trace lane naming to first use so idle
	// ranks and banks stay off the exported timeline.
	namedRank []bool
	namedBank []bool
}

// NewSystem builds a memory system for the configuration. It returns an
// error for an invalid configuration.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:       cfg,
		ranks:     make([]rank, cfg.TotalRanks()),
		chanBusAt: make([]sim.Cycle, cfg.Channels),
	}
	for i := range s.ranks {
		s.ranks[i].banks = make([]bank, cfg.BanksPerRank)
		for b := range s.ranks[i].banks {
			s.ranks[i].banks[b].openRow = -1
		}
	}
	return s, nil
}

// MustSystem is NewSystem for callers with statically valid configurations
// (the DDR4/HBM2 presets in tests and examples); it panics on error.
func MustSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// AttachFaults threads a fault injector into the memory model: ReadChecked
// consults it for dark ranks. A nil injector detaches. The attachment itself
// never perturbs timing — a system with an inactive injector behaves
// bit-identically to one with none.
func (s *System) AttachFaults(inj *fault.Injector) { s.faults = inj }

// Faults returns the attached injector (nil when none).
func (s *System) Faults() *fault.Injector { return s.faults }

// AttachLog attaches an access log: every subsequent top-level Read (including
// the per-chunk reads of StreamRead) appends one AccessRecord. A nil log
// detaches. Logging never perturbs timing — a system with a log attached is
// cycle-identical to one without.
func (s *System) AttachLog(l *AccessLog) { s.log = l }

// Log returns the attached access log (nil when none).
func (s *System) Log() *AccessLog { return s.log }

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns a snapshot of the access counters collected so far.
func (s *System) Stats() Counters { return s.stats }

// Reset clears all bank, bus, and statistics state, returning the system to
// its initial (all rows closed, all resources free) condition.
func (s *System) Reset() {
	for i := range s.ranks {
		s.ranks[i] = rank{banks: make([]bank, s.cfg.BanksPerRank)}
		for b := range s.ranks[i].banks {
			s.ranks[i].banks[b].openRow = -1
		}
	}
	for i := range s.chanBusAt {
		s.chanBusAt[i] = 0
	}
	s.stats = Counters{}
}

// afterRefresh pushes a command start time out of any refresh window: the
// k-th refresh (k >= 1) occupies [k*TREFI, k*TREFI+TRFC) on every rank.
func (s *System) afterRefresh(start sim.Cycle) sim.Cycle {
	if s.cfg.TREFI == 0 || start < s.cfg.TREFI {
		return start
	}
	k := start / s.cfg.TREFI
	windowStart := k * s.cfg.TREFI
	if start < windowStart+s.cfg.TRFC {
		s.stats.RefreshDelays++
		return windowStart + s.cfg.TRFC
	}
	return start
}

// RowOutcome classifies one column access against the bank's row buffer.
type RowOutcome uint8

const (
	// RowHit means the target row was already open.
	RowHit RowOutcome = iota
	// RowMiss means the bank was closed and only an activate was needed.
	RowMiss
	// RowConflict means another row was open and a precharge preceded the
	// activate.
	RowConflict
)

// String returns the outcome name.
func (o RowOutcome) String() string {
	switch o {
	case RowHit:
		return "hit"
	case RowMiss:
		return "miss"
	default:
		return "conflict"
	}
}

// Read performs a read of size bytes starting at addr, issued no earlier
// than cycle now, delivering to dest. It returns the cycle at which the last
// burst of data has arrived. Reads that span interleave-slot boundaries are
// split and the pieces may land on different ranks; the completion is the
// latest piece, and each piece counts as one read.
func (s *System) Read(now sim.Cycle, addr Addr, size int, dest Dest) sim.Cycle {
	if size <= 0 {
		return now
	}
	done, pieces := s.access(now, addr, size, dest)
	s.stats.Reads += pieces
	s.stats.Bytes += uint64(size)
	if dest == DestHost {
		s.stats.BytesToHost += uint64(size)
	}
	if s.log != nil {
		s.log.records = append(s.log.records, AccessRecord{
			Issue: now, Done: done, Addr: addr, Size: size, Dest: dest,
			Rank: s.cfg.GlobalRank(s.cfg.Decode(addr)),
		})
	}
	return done
}

// access reserves the banks, pins, and (for DestHost) channel buses a
// transfer of size bytes at addr occupies, split at interleave-slot
// boundaries so each piece maps to one rank and row. It returns the latest
// piece's completion and the piece count. Reads and writes share it: bank
// events (bursts, row outcomes, refresh delays) count here for both, while
// the request counters live in Read and Write.
func (s *System) access(now sim.Cycle, addr Addr, size int, dest Dest) (done sim.Cycle, pieces uint64) {
	done = now
	for size > 0 {
		slotOff := int(addr) % s.cfg.InterleaveBytes
		chunk := s.cfg.InterleaveBytes - slotOff
		if chunk > size {
			chunk = size
		}
		done = sim.Max(done, s.accessWithinSlot(now, addr, chunk, dest))
		pieces++
		addr += Addr(chunk)
		size -= chunk
	}
	return done, pieces
}

// ReadChecked is Read with the attached fault injector consulted first: a
// read whose address decodes to a rank that is dark at issue time returns
// fault.ErrRankFailed instead of timing. With no injector attached (or an
// inactive one) it is exactly Read.
func (s *System) ReadChecked(now sim.Cycle, addr Addr, size int, dest Dest) (sim.Cycle, error) {
	if s.faults.Active() {
		// Walk the interleave slots the read spans; each may map to a
		// different rank.
		a, left := addr, size
		for left > 0 {
			chunk := s.cfg.InterleaveBytes - int(a)%s.cfg.InterleaveBytes
			if chunk > left {
				chunk = left
			}
			if g := s.cfg.GlobalRank(s.cfg.Decode(a)); s.faults.RankFailed(g, now) {
				s.stats.FailedRankReads++
				return 0, fmt.Errorf("%w: read of %d B at %#x targets dark rank %d at cycle %d",
					fault.ErrRankFailed, size, uint64(addr), g, now)
			}
			a += Addr(chunk)
			left -= chunk
		}
	}
	return s.Read(now, addr, size, dest), nil
}

// accessWithinSlot serves a transfer that stays inside one interleave slot
// (hence one rank and one row).
func (s *System) accessWithinSlot(now sim.Cycle, addr Addr, size int, dest Dest) sim.Cycle {
	loc := s.cfg.Decode(addr)
	g := s.cfg.GlobalRank(loc)
	rk := &s.ranks[g]
	bk := &rk.banks[loc.Bank]

	start := sim.Max(now, bk.readyAt)
	start = s.afterRefresh(start)

	// Row-buffer outcome.
	var outcome RowOutcome
	switch {
	case bk.openRow == loc.Row:
		outcome = RowHit
	case bk.openRow == -1:
		outcome = RowMiss
	default:
		outcome = RowConflict
	}
	var preAt, actAt sim.Cycle // command times for the trace emitter
	switch outcome {
	case RowHit:
		s.stats.RowHits++
	case RowMiss, RowConflict:
		if outcome == RowConflict {
			preAt = start
			start += s.cfg.TRP
			s.stats.RowConflicts++
		} else {
			s.stats.RowMisses++
		}
		// Activate throttling: honour tRRD against the previous activate
		// and tFAW against the fourth-to-last one.
		actAt = start
		if rk.lastActivate > 0 || rk.activateIdx > 0 {
			actAt = sim.Max(actAt, rk.lastActivate+s.cfg.TRRD)
		}
		oldest := rk.activates[rk.activateIdx%4]
		if rk.activateIdx >= 4 {
			actAt = sim.Max(actAt, oldest+s.cfg.TFAW)
		}
		rk.activates[rk.activateIdx%4] = actAt
		rk.activateIdx++
		rk.lastActivate = actAt
		start = actAt + s.cfg.TRCD
	}
	bk.openRow = loc.Row

	// Column access latency, then burst the data out over the rank pins
	// (and the channel bus when headed to the host).
	firstData := start + s.cfg.TCAS
	bursts := (size + s.cfg.BurstBytes - 1) / s.cfg.BurstBytes
	dataAt := sim.Max(firstData, rk.pinsAt)
	for b := 0; b < bursts; b++ {
		if dest == DestHost {
			busFree := s.chanBusAt[loc.Channel]
			dataAt = sim.Max(dataAt, busFree)
			s.chanBusAt[loc.Channel] = dataAt + s.cfg.TBurst
		}
		dataAt += s.cfg.TBurst
	}
	rk.pinsAt = dataAt
	bk.readyAt = start + s.cfg.TCAS // bank can take next column command
	if s.cfg.ClosedPage {
		bk.openRow = -1 // auto-precharge
	}

	s.stats.Bursts += uint64(bursts)
	if s.tracer != nil {
		s.traceAccess(g, loc, outcome, preAt, actAt, start, dataAt, size)
	}
	return dataAt
}

// RankFreeAt reports the earliest cycle global rank g's data pins are free,
// which engines use to model streaming back-pressure.
func (s *System) RankFreeAt(g int) sim.Cycle { return s.ranks[g].pinsAt }

// ChannelFreeAt reports the earliest cycle channel ch's host bus is free.
func (s *System) ChannelFreeAt(ch int) sim.Cycle { return s.chanBusAt[ch] }

// TransferCycles reports the channel-bus cycles needed to move size bytes.
func (c Config) TransferCycles(size int) sim.Cycle {
	bursts := (size + c.BurstBytes - 1) / c.BurstBytes
	return sim.Cycle(bursts) * c.TBurst
}

// Write performs a write of size bytes at addr, issued no earlier than
// cycle now. Writes traverse the same bank/row/pin resources as reads (the
// model has no write-specific timing; tWR-class effects are folded into the
// shared constants) and are counted separately in the statistics: one write
// per call, never a read. Data always originates at the NDP side in this
// repository's engines, so no channel-bus reservation applies.
func (s *System) Write(now sim.Cycle, addr Addr, size int) sim.Cycle {
	if size <= 0 {
		return now
	}
	done, _ := s.access(now, addr, size, DestLocal)
	s.stats.Writes++
	s.stats.BytesWritten += uint64(size)
	return done
}

// StreamWrite models a sequential write-back stream of size bytes to global
// rank g starting at slot startSlot (the partial-result spill of an SpMV
// merge round). It returns an error for a rank outside the geometry.
func (s *System) StreamWrite(now sim.Cycle, g int, startSlot uint64, size int) (sim.Cycle, error) {
	done := now
	slot := startSlot
	for size > 0 {
		chunk := s.cfg.InterleaveBytes
		if chunk > size {
			chunk = size
		}
		addr, err := s.cfg.Encode(g, slot)
		if err != nil {
			return 0, err
		}
		done = s.Write(done, addr, chunk)
		slot++
		size -= chunk
	}
	return done, nil
}

// StreamRead models a sequential stream of size bytes from global rank g
// starting at that rank's slot startSlot, as used by SpMV streaming. It is
// row-buffer friendly by construction: consecutive slots of a rank share
// rows. Returns the completion cycle of the final burst, or an error for a
// rank outside the geometry.
func (s *System) StreamRead(now sim.Cycle, g int, startSlot uint64, size int, dest Dest) (sim.Cycle, error) {
	done := now
	slot := startSlot
	for size > 0 {
		chunk := s.cfg.InterleaveBytes
		if chunk > size {
			chunk = size
		}
		addr, err := s.cfg.Encode(g, slot)
		if err != nil {
			return 0, err
		}
		done = s.Read(done, addr, chunk, dest)
		slot++
		size -= chunk
	}
	return done, nil
}
