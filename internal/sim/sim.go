// Package sim is the clock every timing engine in the repository shares: a
// cycle type and the three helpers resource-reservation models need.
//
// The engines in internal/fafnir, internal/recnmp, internal/tensordimm, and
// internal/twostep are resource-reservation timing models: components expose
// "earliest time this resource can next be used" state, and requests reserve
// time slices on them by taking maxima of cycles. Nothing here schedules
// events; counters live with the component that counts (dram.Counters,
// telemetry.Registry).
package sim

import "math"

// Cycle is a point in simulated time, measured in clock cycles of the
// component's own clock domain (the Fafnir PEs run at 200 MHz; the DDR4
// model runs at its own memory clock). Conversions between domains happen
// explicitly at the boundaries.
type Cycle uint64

// MaxCycle is the largest representable cycle, used as "never".
const MaxCycle = Cycle(math.MaxUint64)

// Max returns the later of a and b.
func Max(a, b Cycle) Cycle {
	if a > b {
		return a
	}
	return b
}

// Seconds converts a cycle count in a clock domain of the given frequency to
// seconds.
func Seconds(c Cycle, mhz float64) float64 {
	return float64(c) / (mhz * 1e6)
}

// Rescale converts d cycles of a fromMHz clock to cycles of a toMHz clock,
// rounding up (exactly when fromMHz is a whole multiple of toMHz, as every
// configured pair is). It is the one clock-domain crossing: every engine
// reads DRAM completions through it (fafnir.Config.DRAMToPE,
// cpu.Config.DRAMToHost, spmv.Schedule, recnmp, tensordimm).
func Rescale(d Cycle, fromMHz, toMHz float64) Cycle {
	ratio := fromMHz / toMHz
	return Cycle((float64(d) + ratio - 1) / ratio)
}
