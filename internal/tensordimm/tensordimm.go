// Package tensordimm models the TensorDIMM baseline (Kwon et al., MICRO
// 2019) as the FAFNIR paper characterizes it in Section III:
//
//   - every embedding vector is split column-major across all ranks, so one
//     rank stores VectorBytes/NumRanks of every vector;
//   - a query's q vectors are read slice by slice at every rank; because
//     distinct vectors live at random rank-local offsets, almost every slice
//     read activates a new row — the row-buffer-locality penalty that makes
//     TensorDIMM's memory time up to 16x slower than row-major designs;
//   - each rank's NDP unit reduces its slices in a pipeline (q-1 sequential
//     partial sums per query rather than a parallel tree), and only the
//     reduced slice travels to the host, which concatenates the partitions.
//
// Data movement is therefore minimal (n*v elements, like Fafnir) but both
// memory and compute time scale with q per query.
package tensordimm

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/sim"
	"fafnir/internal/tensor"
)

// Config parameterizes the TensorDIMM model.
type Config struct {
	// VectorBytes is the full embedding-vector size.
	VectorBytes int
	// ReduceCyclesPerSlice is the NDP pipeline cost of one partial-sum step
	// on one rank's slice, in PE-equivalent (200 MHz) cycles.
	ReduceCyclesPerSlice sim.Cycle
	// ClockMHz is the reporting clock.
	ClockMHz float64
	// DRAMClockMHz converts memory time into the reporting clock.
	DRAMClockMHz float64
}

// Default returns the calibration matching the paper's setup (512 B
// vectors).
func Default() Config {
	return Config{
		VectorBytes:          512,
		ReduceCyclesPerSlice: 24,
		ClockMHz:             200,
		DRAMClockMHz:         1200,
	}
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.VectorBytes <= 0:
		return fmt.Errorf("tensordimm: VectorBytes must be positive, got %d", c.VectorBytes)
	case c.ReduceCyclesPerSlice == 0:
		return fmt.Errorf("tensordimm: ReduceCyclesPerSlice must be positive")
	case c.ClockMHz <= 0:
		return fmt.Errorf("tensordimm: ClockMHz must be positive, got %v", c.ClockMHz)
	case c.DRAMClockMHz <= 0:
		return fmt.Errorf("tensordimm: DRAMClockMHz must be positive, got %v", c.DRAMClockMHz)
	}
	return nil
}

// Result is the outcome of one TensorDIMM batch.
type Result struct {
	// Outputs holds the reduced vector per query.
	Outputs []tensor.Vector
	// MemCycles is when the last slice read completed (reporting clock).
	MemCycles sim.Cycle
	// ComputeCycles is the pipelined NDP reduction time.
	ComputeCycles sim.Cycle
	// TotalCycles is the batch latency including result transfer.
	TotalCycles sim.Cycle
	// MemoryReads counts slice reads across all ranks.
	MemoryReads int
	// BytesToHost is the channel traffic (only reduced outputs).
	BytesToHost uint64
}

// Engine is the TensorDIMM timing model.
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

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// sliceAddr returns the byte address of vector idx's slice on global rank r:
// rank-locally, vector slices are stored densely in index order, so random
// indices land in random rows.
func sliceAddr(mcfg dram.Config, idx header.Index, sliceBytes int) (slot uint64, off int) {
	local := uint64(idx) * uint64(sliceBytes)
	return local / uint64(mcfg.InterleaveBytes), int(local % uint64(mcfg.InterleaveBytes))
}

// TimedLookup runs a batch. For every query, every rank reads the slices of
// all q vectors (random rows — the row-locality penalty is charged by the
// DRAM model) and pipelines q-1 partial sums; the reduced output slices then
// cross the channels to the host.
func (e *Engine) TimedLookup(store *embedding.Store, mem *dram.System, b embedding.Batch) (*Result, error) {
	mcfg := mem.Config()
	ranks := mcfg.TotalRanks()
	sliceBytes := e.cfg.VectorBytes / ranks
	if sliceBytes == 0 {
		return nil, fmt.Errorf("tensordimm: vector of %d bytes cannot split over %d ranks", e.cfg.VectorBytes, ranks)
	}
	outputs, err := b.Golden(store)
	if err != nil {
		return nil, err
	}
	res := &Result{Outputs: outputs}

	toHost := func(d sim.Cycle) sim.Cycle { return sim.Rescale(d, e.cfg.DRAMClockMHz, e.cfg.ClockMHz) }

	// Each rank serves its slice reads in sequence; ranks run in parallel.
	// Track the per-rank completion in the DRAM clock.
	var memDone sim.Cycle
	for _, q := range b.Queries {
		for _, idx := range q.Indices {
			for r := 0; r < ranks; r++ {
				slot, off := sliceAddr(mcfg, idx, sliceBytes)
				base, err := mcfg.Encode(r, slot)
				if err != nil {
					return nil, err
				}
				addr := base + dram.Addr(off)
				done := mem.Read(0, addr, sliceBytes, dram.DestLocal)
				memDone = sim.Max(memDone, done)
				res.MemoryReads++
			}
		}
	}
	res.MemCycles = toHost(memDone)

	// Pipelined partial sums: every query costs q-1 sequential reduce steps
	// per rank, all ranks in lockstep, queries back to back. (Fafnir instead
	// reduces each query's q vectors in a log-depth parallel tree.)
	var compute sim.Cycle
	for _, q := range b.Queries {
		steps := q.Indices.Len() - 1
		if steps > 0 {
			compute += sim.Cycle(steps) * e.cfg.ReduceCyclesPerSlice
		}
	}
	res.ComputeCycles = compute

	// Outputs: one slice per rank per query -> n*VectorBytes total over the
	// channels.
	outBytes := len(b.Queries) * e.cfg.VectorBytes
	res.BytesToHost = uint64(outBytes)
	xfer := toHost(mcfg.TransferCycles(outBytes))

	res.TotalCycles = res.MemCycles + res.ComputeCycles + xfer
	return res, nil
}

// Verify checks the model's functional outputs against the golden reference.
func Verify(res *Result, golden []tensor.Vector, tol float64) error {
	if len(res.Outputs) != len(golden) {
		return fmt.Errorf("tensordimm: %d outputs for %d queries", len(res.Outputs), len(golden))
	}
	for i := range golden {
		if !res.Outputs[i].ApproxEqual(golden[i], tol) {
			return fmt.Errorf("tensordimm: query %d mismatches golden", i)
		}
	}
	return nil
}
