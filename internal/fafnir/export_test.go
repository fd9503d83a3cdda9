package fafnir

import "fafnir/internal/sim"

// Helpers only the tests call.

// Seconds converts the total latency to seconds at the PE clock.
func (r TimedResult) Seconds(cfg Config) float64 {
	return sim.Seconds(r.TotalCycles, cfg.ClockMHz)
}
