package dram

import (
	"fmt"

	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
)

// This file threads the telemetry tracer through the memory model. It
// generalizes the AttachLog hook: where the access log records one flat
// AccessRecord per top-level read, the tracer sees the per-bank command
// schedule — PRE/ACT/RD spans with row-buffer outcome annotations — on one
// lane per (rank, bank). Reads issue in strict program order from the
// engines, so the event stream is deterministic, and like the log the
// attachment never perturbs timing.

// AttachTracer threads an event tracer into the memory system: every
// subsequent column access emits its PRE (row conflicts), ACT (misses and
// conflicts), and RD command spans on the per-bank lane of the rank that
// served it. A nil tracer detaches. Tracing never perturbs timing.
func (s *System) AttachTracer(t telemetry.Tracer) {
	s.tracer = t
	s.namedRank, s.namedBank = nil, nil
	if t != nil {
		s.namedRank = make([]bool, s.cfg.TotalRanks())
		s.namedBank = make([]bool, s.cfg.TotalRanks()*s.cfg.BanksPerRank)
	}
}

// Tracer returns the attached tracer (nil when none).
func (s *System) Tracer() telemetry.Tracer { return s.tracer }

// traceAccess emits the command spans of one column access on bank loc.Bank
// of global rank g. preAt/actAt are zero for outcomes that skipped those
// commands; colAt is the column command time and dataAt the final burst
// arrival, so the RD span covers CAS latency, pin waits, and burst drain.
func (s *System) traceAccess(g int, loc Location, outcome RowOutcome, preAt, actAt, colAt, dataAt sim.MemCycle, size int) {
	pid := telemetry.PIDDRAMBase + g
	if !s.namedRank[g] {
		s.namedRank[g] = true
		s.tracer.NameProcess(pid, fmt.Sprintf("DRAM rank %d", g))
	}
	if bi := g*s.cfg.BanksPerRank + loc.Bank; !s.namedBank[bi] {
		s.namedBank[bi] = true
		s.tracer.NameLane(pid, loc.Bank, fmt.Sprintf("bank %d", loc.Bank))
	}
	mhz := s.cfg.ClockMHz
	if outcome == RowConflict {
		s.tracer.Emit(telemetry.Event{
			Name: "PRE", Cat: "dram", Phase: telemetry.PhaseSpan,
			PID: pid, TID: loc.Bank,
			TS: uint64(preAt), Dur: uint64(s.cfg.TRP), ClockMHz: mhz,
		})
	}
	if outcome != RowHit {
		act := telemetry.Event{
			Name: "ACT", Cat: "dram", Phase: telemetry.PhaseSpan,
			PID: pid, TID: loc.Bank,
			TS: uint64(actAt), Dur: uint64(s.cfg.TRCD), ClockMHz: mhz,
		}
		act.AddArg(telemetry.Arg{Key: "row", Int: int64(loc.Row)})
		s.tracer.Emit(act)
	}
	rd := telemetry.Event{
		Name: "RD", Cat: "dram", Phase: telemetry.PhaseSpan,
		PID: pid, TID: loc.Bank,
		TS: uint64(colAt), Dur: uint64(dataAt - colAt), ClockMHz: mhz,
	}
	rd.AddArg(telemetry.Arg{Key: "outcome", Str: outcome.String()})
	rd.AddArg(telemetry.Arg{Key: "row", Int: int64(loc.Row)})
	rd.AddArg(telemetry.Arg{Key: "bytes", Int: int64(size)})
	s.tracer.Emit(rd)
}
