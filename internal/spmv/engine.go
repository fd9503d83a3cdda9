package spmv

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/fafnir"
	"fafnir/internal/sim"
	"fafnir/internal/sparse"
	"fafnir/internal/tensor"
)

// Config parameterizes the Fafnir SpMV engine.
type Config struct {
	// Tree is the underlying Fafnir hardware configuration (ranks, clocks,
	// Table IV latencies). VectorDim doubles as the number of multiply
	// lanes per leaf (the vectorization width of Fig. 7c).
	Tree fafnir.Config
	// VectorSize is the number of matrix columns fitting in the tree at
	// once (2048 in the paper's configuration).
	VectorSize int
	// MultElemsPerCycle is the aggregate multiply throughput of the leaf
	// PEs in iteration 0. Fafnir applies SpMV on data as it streams, so
	// this sits near the memory line rate (16 leaves x 16 lanes = 256).
	MultElemsPerCycle float64
	// MergeElemsPerCycle is the aggregate throughput of merge iterations.
	// Merging funnels every element through the top of the tree — the
	// channel node's PEs and the root's output datapath, about four 16-lane
	// paths — so it sits well below the multiply rate; this is why
	// Two-Step's dedicated multi-way merge core wins iterations > 0.
	MergeElemsPerCycle float64
}

// Default returns the paper's SpMV configuration (vector size 2048 on the
// 32-rank tree).
func Default() Config {
	return Config{
		Tree:               fafnir.Default(),
		VectorSize:         2048,
		MultElemsPerCycle:  256,
		MergeElemsPerCycle: 64,
	}
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	if err := c.Tree.Validate(); err != nil {
		return err
	}
	switch {
	case c.VectorSize < 2:
		return fmt.Errorf("spmv: VectorSize must be at least 2 (it is the merge fan-in), got %d", c.VectorSize)
	case c.MultElemsPerCycle <= 0:
		return fmt.Errorf("spmv: MultElemsPerCycle must be positive, got %v", c.MultElemsPerCycle)
	case c.MergeElemsPerCycle <= 0:
		return fmt.Errorf("spmv: MergeElemsPerCycle must be positive, got %v", c.MergeElemsPerCycle)
	}
	return nil
}

// Engine runs SpMV on the Fafnir tree.
type Engine struct {
	cfg   Config
	sched Schedule
}

// NewEngine builds the engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tree, err := fafnir.NewTree(cfg.Tree)
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, sched: Schedule{
		Name:               "spmv",
		Ranks:              cfg.Tree.NumRanks,
		VectorSize:         cfg.VectorSize,
		ClockMHz:           cfg.Tree.ClockMHz,
		DRAMClockMHz:       cfg.Tree.DRAMClockMHz,
		MultElemsPerCycle:  cfg.MultElemsPerCycle,
		MergeElemsPerCycle: cfg.MergeElemsPerCycle,
		// The tree's pipeline-fill latency: one stage per level.
		Fill:     cfg.Tree.Latency.StageLatency() * sim.Cycle(tree.Depth()),
		KeepZero: true,
	}}, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Schedule returns the Fig. 8 schedule with the Fafnir tree's constants.
func (e *Engine) Schedule() Schedule { return e.sched }

// Multiply computes y = m*x with full timing against the DRAM model. The
// functional result is exact (validated against sparse.LIL.MulVec); the
// timing follows the Fig. 8 schedule.
func (e *Engine) Multiply(m *sparse.LIL, x tensor.Vector, mem *dram.System) (*Result, error) {
	return e.sched.Run(m, x, mem)
}
