// Package energy models DRAM access energy, the basis of the paper's
// memory-energy-saving argument (Fig. 15): because Fafnir reads each unique
// index of a batch exactly once, it saves 34 %, 43 %, and 58 % of the memory
// accesses for batch sizes 8, 16, and 32, and DRAM energy dominates compute
// energy, so access savings translate directly into energy savings.
package energy

import (
	"fmt"

	"fafnir/internal/sim"
)

// Model holds per-event DRAM energy costs. The defaults are DDR4-class
// figures (activate+precharge per row cycle, and read burst); absolute
// joules matter less than ratios, which depend only on counts.
type Model struct {
	// ActivatePJ is the energy of one activate/precharge row cycle.
	ActivatePJ float64
	// BurstPJ is the energy of one 64 B read burst (core array + I/O).
	BurstPJ float64
}

// DDR4 returns the default DDR4-class calibration.
func DDR4() Model {
	return Model{
		ActivatePJ: 2000,
		BurstPJ:    500,
	}
}

// Validate reports a descriptive error for an unusable model.
func (m Model) Validate() error {
	if m.ActivatePJ <= 0 || m.BurstPJ <= 0 {
		return fmt.Errorf("energy: non-positive event energies %+v", m)
	}
	return nil
}

// Counts are the DRAM event counts of one run, taken from the dram.System
// statistics.
type Counts struct {
	Activates uint64 // row misses + conflicts
	Bursts    uint64
}

// DynamicPJ reports the dynamic energy of the run in picojoules.
func (m Model) DynamicPJ(c Counts) float64 {
	return float64(c.Activates)*m.ActivatePJ + float64(c.Bursts)*m.BurstPJ
}

// Savings reports the fractional reduction going from the baseline counts to
// the optimized counts: 1 - optimized/baseline (dynamic energy only, the
// quantity Fig. 15's access reduction drives).
func (m Model) Savings(baseline, optimized Counts) float64 {
	b := m.DynamicPJ(baseline)
	if b == 0 {
		return 0
	}
	return 1 - m.DynamicPJ(optimized)/b
}

// AccessSavings is the pure access-count version of Fig. 15: the fraction of
// memory accesses eliminated by deduplication.
func AccessSavings(totalAccesses, uniqueAccesses int) float64 {
	if totalAccesses == 0 {
		return 0
	}
	return 1 - float64(uniqueAccesses)/float64(totalAccesses)
}

// AcceleratorPJ reports the energy of NDP logic drawing powerMW for the
// given runtime in PE cycles.
func AcceleratorPJ(powerMW float64, runtime sim.Cycle) float64 {
	if powerMW <= 0 {
		return 0
	}
	return powerMW * 1e-3 * sim.Seconds(runtime) * 1e12
}
