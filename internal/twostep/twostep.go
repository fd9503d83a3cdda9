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
// The model shares the DRAM streaming substrate with the Fafnir SpMV engine
// so the comparison isolates exactly these two compute-throughput
// differences, which is the paper's own explanation of Fig. 14.
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
	// PipelineFill is the fixed per-round pipeline latency.
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
	case c.VectorSize <= 0:
		return fmt.Errorf("twostep: VectorSize must be positive, got %d", c.VectorSize)
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

// Result is the outcome of one Two-Step SpMV run.
type Result struct {
	// Y is the product vector.
	Y tensor.Vector
	// Step1Cycles and MergeCycles split the runtime by phase.
	Step1Cycles, MergeCycles sim.Cycle
	// TotalCycles is the end-to-end runtime.
	TotalCycles sim.Cycle
	// ElementsStreamed counts streamed matrix/partial elements.
	ElementsStreamed int
	// BytesStreamed is the corresponding traffic.
	BytesStreamed uint64
}

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

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

func (e *Engine) toPE(d sim.Cycle) sim.Cycle {
	ratio := e.cfg.DRAMClockMHz / e.cfg.ClockMHz
	return sim.Cycle((float64(d) + ratio - 1) / ratio)
}

// roundTime charges one round of elems streamed elements at elemsPerCycle,
// chaining the accelerator's compute occupancy across rounds like the
// Fafnir SpMV engine does.
func (e *Engine) roundTime(mem *dram.System, memClock, peDone sim.Cycle, elems int, elemsPerCycle float64) (sim.Cycle, sim.Cycle, error) {
	if elems == 0 {
		return memClock, peDone, nil
	}
	perRank := (elems + e.cfg.Ranks - 1) / e.cfg.Ranks
	var memDone sim.Cycle
	for r := 0; r < e.cfg.Ranks; r++ {
		done, err := mem.StreamRead(memClock, r, 0, perRank*8, dram.DestLocal)
		if err != nil {
			return 0, 0, err
		}
		memDone = sim.Max(memDone, done)
	}
	compute := sim.Cycle(float64(elems)/elemsPerCycle + 1)
	end := sim.Max(e.toPE(memDone), peDone+compute)
	return memDone, end, nil
}

// writeBack spills a round's partial stream when a later merge iteration
// will re-read it (same policy as the Fafnir SpMV engine, so the comparison
// stays fair).
func (e *Engine) writeBack(mem *dram.System, clock sim.Cycle, s *spmv.PartialStream, needed bool) (sim.Cycle, error) {
	if !needed || s.Len() == 0 {
		return clock, nil
	}
	perRank := (s.Bytes() + e.cfg.Ranks - 1) / e.cfg.Ranks
	done := clock
	for r := 0; r < e.cfg.Ranks; r++ {
		end, err := mem.StreamWrite(clock, r, 0, perRank)
		if err != nil {
			return 0, err
		}
		done = sim.Max(done, end)
	}
	return done, nil
}

// Multiply computes y = m*x with full timing. The schedule mirrors the
// Fafnir plan (same chunk splitting), with Two-Step's own per-phase
// throughputs.
func (e *Engine) Multiply(m *sparse.LIL, x tensor.Vector, mem *dram.System) (*Result, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("twostep: operand of %d elements against %d columns", len(x), m.Cols)
	}
	plan, err := spmv.NewPlan(m.Cols, e.cfg.VectorSize)
	if err != nil {
		return nil, err
	}
	res := &Result{}

	var streams []*spmv.PartialStream
	var clock, peClock sim.Cycle
	cur := m.Cursor()
	for lo := 0; lo < m.Cols; lo += e.cfg.VectorSize {
		stream, elems := spmv.MultiplyChunk(cur, min(lo+e.cfg.VectorSize, m.Cols), x, false)
		streams = append(streams, stream)
		res.ElementsStreamed += elems
		res.BytesStreamed += uint64(elems) * 8
		clock, peClock, err = e.roundTime(mem, clock, peClock, elems, e.cfg.Step1ElemsPerCycle)
		if err != nil {
			return nil, err
		}
		clock, err = e.writeBack(mem, clock, stream, plan.MergeIterations() > 0)
		if err != nil {
			return nil, err
		}
	}
	peClock += e.cfg.PipelineFill
	res.Step1Cycles = peClock

	mergeStart := peClock
	iter := 1
	for len(streams) > 1 {
		if iter >= plan.Iterations() {
			return nil, fmt.Errorf("twostep: merge iteration %d beyond plan %v", iter, plan)
		}
		var next []*spmv.PartialStream
		for lo := 0; lo < len(streams); lo += e.cfg.VectorSize {
			hi := lo + e.cfg.VectorSize
			if hi > len(streams) {
				hi = len(streams)
			}
			group := streams[lo:hi]
			elems := 0
			for _, s := range group {
				elems += s.Len()
			}
			res.ElementsStreamed += elems
			res.BytesStreamed += uint64(elems) * 8
			var err error
			clock, peClock, err = e.roundTime(mem, clock, peClock, elems, e.cfg.MergeElemsPerCycle)
			if err != nil {
				return nil, err
			}
			merged := spmv.MergeStreams(group, m.Rows)
			next = append(next, merged)
			clock, err = e.writeBack(mem, clock, merged, iter+1 < plan.Iterations())
			if err != nil {
				return nil, err
			}
		}
		streams = next
		iter++
		peClock += e.cfg.PipelineFill
	}
	res.MergeCycles = peClock - mergeStart
	res.TotalCycles = peClock

	res.Y = tensor.New(m.Rows)
	if len(streams) == 1 {
		final := streams[0]
		for i, r := range final.Rows {
			res.Y[r] = final.Vals[i]
		}
	}
	return res, nil
}
