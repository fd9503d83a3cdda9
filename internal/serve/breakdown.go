package serve

import (
	"time"

	core "fafnir/internal/fafnir"
	"fafnir/internal/sim"
)

// StageLatency is one stage's share of a request's latency, in both clock
// domains: exact simulated cycles (200 MHz PE/router clock; zero for
// host-side stages the simulator never models) and wall-clock microseconds
// as the serving process actually experienced them.
type StageLatency struct {
	Cycles sim.Cycle `json:"cycles"`
	WallUS float64   `json:"wall_us"`
}

// Breakdown is the per-request latency attribution returned on ?debug=trace
// and recorded by the SLO flight recorder: where the request's time went,
// stage by stage, from enqueue to delivery.
//
// The cycle columns are exact, replayable counts — Queue, Coalesce, and
// Cache are host-side stages with no simulated-cycle cost, so
//
//	Backend.Cycles + Combine.Cycles + Transfer.Cycles == TotalCycles
//
// holds with no remainder (the engine/router Stages invariant, with probe
// and failover cycles folded into Backend). The wall columns are measured
// for the host stages and derived (cycles at 200 MHz) for the simulated
// combine and transfer stages, so they are indicative rather than summing
// exactly to TotalWallUS.
type Breakdown struct {
	// RequestID is the request's deterministic coalescer-assigned ID — the
	// same value that roots the request's span chain in the Chrome trace.
	RequestID uint64 `json:"request_id"`
	// Queue is the admission-to-flush wait (lane wait included).
	Queue StageLatency `json:"queue"`
	// Coalesce is the flight's batch build and demultiplex overhead.
	Coalesce StageLatency `json:"coalesce"`
	// Cache is the hot-embedding cache consult/strip/merge work.
	Cache StageLatency `json:"cache"`
	// Backend is the engine gather+reduce (for fleets: probe, the slowest
	// shard window, and failover replays).
	Backend StageLatency `json:"backend"`
	// Combine is partial-pool combining in the rnet switch tree.
	Combine StageLatency `json:"combine"`
	// Transfer is the final root/combine-to-host output transfer.
	Transfer StageLatency `json:"transfer"`
	// TotalCycles is the simulated end-to-end batch latency the request rode.
	TotalCycles sim.Cycle `json:"total_cycles"`
	// TotalWallUS is the measured enqueue-to-delivery wall time.
	TotalWallUS float64 `json:"total_wall_us"`
}

// usOf converts a duration to float microseconds.
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// simUS converts 200 MHz simulated cycles to microseconds.
func simUS(c sim.Cycle) float64 { return float64(c) / sim.PEClockMHz }

// backendStages splits a timed result's cycles into the breakdown's
// backend/combine/transfer columns. Producers maintain Stages.Sum() ==
// TotalCycles; a result that does not (a test fake predating Stages)
// attributes everything to the backend so the breakdown invariant holds
// regardless.
func backendStages(res *core.TimedResult) (backend, combine, transfer sim.Cycle) {
	if res.Stages.Sum() != res.TotalCycles {
		return res.TotalCycles, 0, 0
	}
	return res.Stages.Probe + res.Stages.Backend + res.Stages.Failover,
		res.Stages.Combine, res.Stages.Transfer
}
