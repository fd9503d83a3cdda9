// Package cpu models the processor-centric baseline of Fig. 2a — every
// embedding vector travels over the memory channels to the host, which
// applies the pooling reductions itself — plus the host-side cost model the
// other engines share: the per-vector processing cost of a gathered vector
// on a CPU and the fixed fully-connected-layer latency of the end-to-end
// recommendation model (Fig. 12).
//
// The CPU's arithmetic is never the bottleneck for embedding pooling; the
// cost of handling a gathered vector on the host is dominated by moving it
// through the cache hierarchy. The model therefore charges a per-vector
// handling cost on one of a small number of cores, plus
// the channel-bus occupancy already charged by the DRAM model for
// host-destined reads.
package cpu

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/fafnir"
	"fafnir/internal/sim"
	"fafnir/internal/tensor"
)

// Config parameterizes the host model. Cycle costs are expressed in the
// 200 MHz PE clock domain so all engines report comparable numbers.
type Config struct {
	// VectorHandleCycles is the steady-state (throughput) cost per gathered
	// vector once the host pipeline is primed: moving 512 B through the
	// cache hierarchy plus the SIMD reduction. 8 cycles at 200 MHz is 40 ns.
	VectorHandleCycles sim.Cycle
	// VectorLatencyCycles is the one-time pipeline latency of getting the
	// first vector through the host (cache-miss round trip and combine).
	// It dominates single-query latency; throughput dominates batches.
	VectorLatencyCycles sim.Cycle
	// Cores is the number of cores reducing vectors in parallel.
	Cores int
	// FCSeconds is the fixed fully-connected-layer latency of the
	// recommendation model (the paper uses 0.5 ms).
	FCSeconds float64
	// OtherSeconds is the remaining inference time outside embedding
	// lookup and FC layers.
	OtherSeconds float64
	// ClockMHz is the reporting clock (the PE clock, 200 MHz).
	ClockMHz float64
	// DRAMClockMHz converts DRAM completion times into the reporting clock.
	DRAMClockMHz float64
}

// Default returns the calibration used throughout the experiments.
func Default() Config {
	return Config{
		VectorHandleCycles:  8,
		VectorLatencyCycles: 120,
		Cores:               4,
		FCSeconds:           0.5e-3,
		OtherSeconds:        0.1e-3,
		ClockMHz:            200,
		DRAMClockMHz:        1200,
	}
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.VectorHandleCycles == 0:
		return fmt.Errorf("cpu: VectorHandleCycles must be positive")
	case c.Cores <= 0:
		return fmt.Errorf("cpu: Cores must be positive, got %d", c.Cores)
	case c.ClockMHz <= 0:
		return fmt.Errorf("cpu: ClockMHz must be positive, got %v", c.ClockMHz)
	case c.DRAMClockMHz <= 0:
		return fmt.Errorf("cpu: DRAMClockMHz must be positive, got %v", c.DRAMClockMHz)
	}
	return nil
}

// DRAMToHost converts memory-clock cycles to reporting-clock cycles,
// rounding up.
func (c Config) DRAMToHost(d sim.Cycle) sim.Cycle {
	return sim.Rescale(d, c.DRAMClockMHz, c.ClockMHz)
}

// Result is the outcome of a baseline batch lookup.
type Result struct {
	// Outputs holds the reduced vector per query.
	Outputs []tensor.Vector
	// MemCycles is when the last host-bound read completed (reporting clock).
	MemCycles sim.Cycle
	// ComputeCycles is the host-side reduction time after the reads.
	ComputeCycles sim.Cycle
	// TotalCycles is the batch latency.
	TotalCycles sim.Cycle
	// MemoryReads counts DRAM vector reads (no dedup in the baseline).
	MemoryReads int
	// BytesToHost is the channel traffic.
	BytesToHost uint64
}

// Engine is the no-NDP baseline.
type Engine struct {
	cfg Config
}

// NewEngine builds the baseline engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// TimedLookup gathers every query's vectors across the channels to the host
// and reduces them there. All n*q vectors are read (no dedup, no NDP), every
// read reserves the channel bus, and the host handles each arriving vector
// at VectorHandleCycles on one of Cores cores.
func (e *Engine) TimedLookup(store *embedding.Store, layout fafnir.Placement, mem *dram.System, b embedding.Batch) (*Result, error) {
	outputs, err := b.Golden(store)
	if err != nil {
		return nil, err
	}
	res := &Result{Outputs: outputs}

	var memDone sim.Cycle
	vectors := 0
	for _, q := range b.Queries {
		for _, idx := range q.Indices {
			done := mem.Read(0, layout.Addr(idx), layout.VectorBytes(), dram.DestHost)
			memDone = sim.Max(memDone, done)
			vectors++
		}
	}
	res.MemoryReads = vectors
	res.BytesToHost = uint64(vectors) * uint64(layout.VectorBytes())
	res.MemCycles = e.cfg.DRAMToHost(memDone)

	res.ComputeCycles = e.HandleVectors(vectors)
	res.TotalCycles = res.MemCycles + res.ComputeCycles
	return res, nil
}

// HandleVectors reports the host time to process n gathered vectors: the
// one-time pipeline latency plus the per-vector throughput cost spread over
// the configured cores.
func (e *Engine) HandleVectors(n int) sim.Cycle {
	if n <= 0 {
		return 0
	}
	perCore := (n + e.cfg.Cores - 1) / e.cfg.Cores
	return e.cfg.VectorLatencyCycles + sim.Cycle(perCore)*e.cfg.VectorHandleCycles
}

// InferenceSeconds composes an end-to-end recommendation inference latency
// (Fig. 12): the embedding lookup time plus the fixed FC and other stages.
func (c Config) InferenceSeconds(lookupSeconds float64) float64 {
	return lookupSeconds + c.FCSeconds + c.OtherSeconds
}
