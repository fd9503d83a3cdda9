package spmv

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/fafnir"
	"fafnir/internal/sim"
	"fafnir/internal/sparse"
	"fafnir/internal/tensor"
)

// PartialStream is one partial-result stream: per-row partial sums produced
// by one round, ordered by row index. Merge iterations read these streams
// back and combine equal rows ("the row indices are no longer sorted, but
// this does not impact the functionality" — we keep them sorted for
// determinism).
type PartialStream struct {
	Rows []int32
	Vals []float32
}

// Len reports the stream's element count.
func (s *PartialStream) Len() int { return len(s.Rows) }

// Bytes reports the streamed size: a row index and a value per element.
func (s *PartialStream) Bytes() int { return s.Len() * 8 }

// MultiplyChunk advances the cursor to the chunk ending before column hi
// and returns its partial stream — per row with entries in the chunk, the
// sum of val*x[col] in column order — and the number of matrix elements
// the chunk streamed. A row whose products cancel to exactly zero stays in
// the stream when keepZero is set (the Fafnir leaves forward whatever they
// reduce) and leaves it otherwise (Two-Step's first step emits non-zeros
// only).
func MultiplyChunk(cur *sparse.ChunkCursor, hi int, x tensor.Vector, keepZero bool) (*PartialStream, int) {
	hit, elems := cur.Advance(hi)
	out := &PartialStream{Rows: make([]int32, 0, hit), Vals: make([]float32, 0, hit)}
	for r := 0; hit > 0; r++ {
		cols, vals := cur.Row(r)
		if len(cols) == 0 {
			continue
		}
		hit--
		var acc float32
		for i, c := range cols {
			acc += vals[i] * x[c]
		}
		if acc != 0 || keepZero {
			out.Rows = append(out.Rows, int32(r))
			out.Vals = append(out.Vals, acc)
		}
	}
	return out, elems
}

// MergeStreams sums any number of partial streams of a matrix with the
// given row count into one stream ordered by row. It accumulates on a
// dense per-row array, adding each row's values in stream order — the order
// a hardware merge of these streams meets them, and the order that fixes the
// float32 result.
func MergeStreams(streams []*PartialStream, rows int) *PartialStream {
	acc := make([]float32, rows)
	hit := make([]bool, rows)
	n := 0
	for _, s := range streams {
		for i, r := range s.Rows {
			if !hit[r] {
				hit[r] = true
				n++
			}
			acc[r] += s.Vals[i]
		}
	}
	out := &PartialStream{Rows: make([]int32, 0, n), Vals: make([]float32, 0, n)}
	for r := 0; len(out.Rows) < n; r++ {
		if hit[r] {
			out.Rows = append(out.Rows, int32(r))
			out.Vals = append(out.Vals, acc[r])
		}
	}
	return out
}

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
	case c.VectorSize <= 0:
		return fmt.Errorf("spmv: VectorSize must be positive, got %d", c.VectorSize)
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
