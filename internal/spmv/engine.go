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

// Result is the outcome of one SpMV run.
type Result struct {
	// Y is the product vector.
	Y tensor.Vector
	// Plan is the executed schedule.
	Plan *Plan
	// MultiplyCycles and MergeCycles split the runtime by iteration type
	// (Fafnir wins the multiply, Two-Step wins the merge — Fig. 14's
	// discussion).
	MultiplyCycles, MergeCycles sim.Cycle
	// TotalCycles is the end-to-end runtime in PE cycles.
	TotalCycles sim.Cycle
	// ElementsStreamed counts matrix and partial elements read from memory.
	ElementsStreamed int
	// BytesStreamed is the corresponding traffic.
	BytesStreamed uint64
}

// Engine runs SpMV on the Fafnir tree.
type Engine struct {
	cfg  Config
	tree *fafnir.Tree
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
	return &Engine{cfg: cfg, tree: tree}, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// roundTime charges one round: elems elements stream from memory spread
// over the ranks (8 B each: value + row index) starting at memClock, and the
// engine processes them at elemsPerCycle no earlier than peDone (rounds of
// one iteration pipeline back to back; the slower of memory and compute sets
// the sustained rate). It returns the updated clocks.
func (e *Engine) roundTime(mem *dram.System, memClock, peDone sim.Cycle, elems int, elemsPerCycle float64) (sim.Cycle, sim.Cycle, error) {
	if elems == 0 {
		return memClock, peDone, nil
	}
	ranks := e.cfg.Tree.NumRanks
	perRank := (elems + ranks - 1) / ranks
	var memDone sim.Cycle
	for r := 0; r < ranks; r++ {
		done, err := mem.StreamRead(memClock, r, 0, perRank*8, dram.DestLocal)
		if err != nil {
			return 0, 0, err
		}
		memDone = sim.Max(memDone, done)
	}
	compute := sim.Cycle(float64(elems)/elemsPerCycle + 1)
	end := sim.Max(e.cfg.Tree.DRAMToPE(memDone), peDone+compute)
	return memDone, end, nil
}

// fill is the tree's pipeline-fill latency, paid once per iteration (the
// partial results of one iteration must drain before the next re-streams
// them).
func (e *Engine) fill() sim.Cycle {
	return e.cfg.Tree.Latency.StageLatency() * sim.Cycle(e.tree.Depth())
}

// writeBack spills a round's partial stream to memory when a later merge
// iteration will re-read it, spreading the bytes over the ranks. Final
// results go to the host instead and are not spilled.
func (e *Engine) writeBack(mem *dram.System, clock sim.Cycle, s *PartialStream, needed bool) (sim.Cycle, error) {
	if !needed || s.Len() == 0 {
		return clock, nil
	}
	ranks := e.cfg.Tree.NumRanks
	perRank := (s.Bytes() + ranks - 1) / ranks
	done := clock
	for r := 0; r < ranks; r++ {
		end, err := mem.StreamWrite(clock, r, 0, perRank)
		if err != nil {
			return 0, err
		}
		done = sim.Max(done, end)
	}
	return done, nil
}

// Multiply computes y = m*x with full timing against the DRAM model. The
// functional result is exact (validated against sparse.LIL.MulVec); the
// timing follows the Fig. 8 schedule.
func (e *Engine) Multiply(m *sparse.LIL, x tensor.Vector, mem *dram.System) (*Result, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("spmv: operand of %d elements against %d columns", len(x), m.Cols)
	}
	plan, err := NewPlan(m.Cols, e.cfg.VectorSize)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: plan}

	// Iteration 0: multiply chunk by chunk.
	var streams []*PartialStream
	var clock sim.Cycle // DRAM-domain time
	var peClock sim.Cycle
	cur := m.Cursor()
	for lo := 0; lo < m.Cols; lo += e.cfg.VectorSize {
		partial, elems := MultiplyChunk(cur, min(lo+e.cfg.VectorSize, m.Cols), x, true)
		streams = append(streams, partial)
		res.ElementsStreamed += elems
		res.BytesStreamed += uint64(elems) * 8
		clock, peClock, err = e.roundTime(mem, clock, peClock, elems, e.cfg.MultElemsPerCycle)
		if err != nil {
			return nil, err
		}
		clock, err = e.writeBack(mem, clock, partial, plan.MergeIterations() > 0)
		if err != nil {
			return nil, err
		}
	}
	peClock += e.fill()
	res.MultiplyCycles = peClock
	if len(streams) != plan.MultiplyRounds() {
		return nil, fmt.Errorf("spmv: %d streams for %d planned rounds", len(streams), plan.MultiplyRounds())
	}

	// Merge iterations.
	mergeStart := peClock
	iter := 1
	for len(streams) > 1 {
		if iter >= plan.Iterations() {
			return nil, fmt.Errorf("spmv: merge iteration %d beyond plan %v", iter, plan)
		}
		var next []*PartialStream
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
			merged := MergeStreams(group, m.Rows)
			next = append(next, merged)
			clock, err = e.writeBack(mem, clock, merged, iter+1 < plan.Iterations())
			if err != nil {
				return nil, err
			}
		}
		if len(next) != plan.RoundsPerIteration[iter] {
			return nil, fmt.Errorf("spmv: iteration %d produced %d streams, plan says %d",
				iter, len(next), plan.RoundsPerIteration[iter])
		}
		streams = next
		iter++
		peClock += e.fill()
	}
	res.MergeCycles = peClock - mergeStart
	res.TotalCycles = peClock

	// Materialize the dense result.
	res.Y = tensor.New(m.Rows)
	if len(streams) == 1 {
		for i, r := range streams[0].Rows {
			res.Y[r] = streams[0].Vals[i]
		}
	}
	return res, nil
}
