// Package sim holds the two clocks every timing engine in the repository
// runs on: a cycle type per clock domain and the helpers
// resource-reservation models need.
//
// The engines in internal/fafnir, internal/recnmp, internal/tensordimm, and
// internal/twostep are resource-reservation timing models: components expose
// "earliest time this resource can next be used" state, and requests reserve
// time slices on them by taking maxima of cycles. Nothing here schedules
// events; counters live with the component that counts (dram.Counters,
// telemetry.Registry).
//
// Cycle is the PE clock, PEClockMHz: the Fafnir PEs, the router tier and the
// rnet switches, and every cycle count an engine reports. MemCycle is a
// memory's own clock, whose frequency only the memory knows
// (dram.Config.ClockMHz). The compiler keeps the two apart: a memory cycle
// passed where a PE cycle is expected does not build. The only crossings are
// the memory's own, dram.Config.ToPE and FromPE.
package sim

import "math"

// PEClockMHz is the PE clock (200 MHz on the paper's FPGA, Table IV): the
// clock of every Cycle.
const PEClockMHz = 200

// Cycle is a point in simulated time, in cycles of the PE clock.
type Cycle uint64

// MemCycle is a point in simulated time, in cycles of a memory's own clock.
type MemCycle uint64

// MaxCycle is the largest representable cycle, used as "never".
const MaxCycle = Cycle(math.MaxUint64)

// Max returns the later of a and b.
func Max[T Cycle | MemCycle](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Seconds converts a count of PE cycles to seconds.
func Seconds(c Cycle) float64 {
	return float64(c) / (PEClockMHz * 1e6)
}

// Rescale converts d cycles of a fromMHz memory clock to cycles of a toMHz
// clock, rounding up (exactly when fromMHz is a whole multiple of toMHz, as
// DDR4's 1,200 and HBM2's 1,800 MHz are of the PE clock). It is the
// arithmetic of dram.Config.ToPE, its one caller.
func Rescale(d MemCycle, fromMHz, toMHz float64) Cycle {
	ratio := fromMHz / toMHz
	return Cycle((float64(d) + ratio - 1) / ratio)
}
