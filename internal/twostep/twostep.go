// Package twostep models the Two-Step algorithm (the state-of-the-art NDP
// SpMV accelerator the FAFNIR paper compares against in Fig. 14). Two-Step
// converts random memory accesses into regular streams and optimizes the
// merge phase with a binary-tree-based multi-way merge core:
//
//   - its first step (the multiply) relies on decompression mechanisms and a
//     chain of adders, so it processes streamed elements more slowly than
//     Fafnir, which applies SpMV on data as it streams;
//   - its merge steps run on the dedicated parallel merge core and are
//     faster than Fafnir's general reduction tree.
//
// The model is a parameter set, not an engine of its own: it runs the one
// spmv.Schedule — same chunk splitting, same streaming memory, same spill
// policy — with these two throughputs, so the comparison isolates exactly
// the differences the paper gives as its own explanation of Fig. 14.
package twostep

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/sim"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/tensor"
)

// Config parameterizes the Two-Step model.
type Config struct {
	// Ranks is the number of memory ranks streamed in parallel.
	Ranks int
	// VectorSize is the column-chunk width (the same splitting as Fafnir's;
	// the paper notes "similar splitting is also used in the state-of-the-
	// art NDP approach").
	VectorSize int
	// Step1ElemsPerCycle is the aggregate multiply-step throughput. The
	// decompression mechanisms and the chain of adders hold it well below
	// the memory line rate — the reason Fafnir wins iteration 0.
	Step1ElemsPerCycle float64
	// MergeElemsPerCycle is the aggregate throughput of the optimized
	// binary-tree multi-way merge core — higher than Fafnir's general
	// reduction tree, the reason Two-Step wins iterations > 0.
	MergeElemsPerCycle float64
	// PipelineFill is the fixed per-iteration pipeline latency.
	PipelineFill sim.Cycle
	// ClockMHz is the accelerator clock.
	ClockMHz float64
	// DRAMClockMHz converts memory completions into accelerator cycles.
	DRAMClockMHz float64
}

// Default returns the calibration used in the Fig. 14 reproduction: the
// same geometry and clock as Fafnir, a 3x slower multiply step
// (decompression + adder chain) and a 3x faster merge core.
func Default() Config {
	return Config{
		Ranks:              32,
		VectorSize:         2048,
		Step1ElemsPerCycle: 64,
		MergeElemsPerCycle: 96,
		PipelineFill:       140,
		ClockMHz:           200,
		DRAMClockMHz:       1200,
	}
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Ranks <= 0:
		return fmt.Errorf("twostep: Ranks must be positive, got %d", c.Ranks)
	case c.VectorSize < 2:
		return fmt.Errorf("twostep: VectorSize must be at least 2 (it is the merge fan-in), got %d", c.VectorSize)
	case c.Step1ElemsPerCycle <= 0:
		return fmt.Errorf("twostep: Step1ElemsPerCycle must be positive, got %v", c.Step1ElemsPerCycle)
	case c.MergeElemsPerCycle <= 0:
		return fmt.Errorf("twostep: MergeElemsPerCycle must be positive, got %v", c.MergeElemsPerCycle)
	case c.ClockMHz <= 0:
		return fmt.Errorf("twostep: ClockMHz must be positive, got %v", c.ClockMHz)
	case c.DRAMClockMHz <= 0:
		return fmt.Errorf("twostep: DRAMClockMHz must be positive, got %v", c.DRAMClockMHz)
	}
	return nil
}

// Result is the outcome of one Two-Step SpMV run; MultiplyCycles is step 1.
type Result = spmv.Result

// Engine is the Two-Step timing model.
type Engine struct {
	cfg Config
}

// NewEngine builds the engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Schedule returns the Fig. 8 schedule with Two-Step's constants. Step 1
// emits non-zero partial sums only, so KeepZero stays off.
func (e *Engine) Schedule() spmv.Schedule {
	return spmv.Schedule{
		Name:               "twostep",
		Ranks:              e.cfg.Ranks,
		VectorSize:         e.cfg.VectorSize,
		ClockMHz:           e.cfg.ClockMHz,
		DRAMClockMHz:       e.cfg.DRAMClockMHz,
		MultElemsPerCycle:  e.cfg.Step1ElemsPerCycle,
		MergeElemsPerCycle: e.cfg.MergeElemsPerCycle,
		Fill:               e.cfg.PipelineFill,
	}
}

// Multiply computes y = m*x with full timing on the shared schedule.
func (e *Engine) Multiply(m *sparse.LIL, x tensor.Vector, mem *dram.System) (*Result, error) {
	return e.Schedule().Run(m, x, mem)
}
