package spmv

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/sim"
	"fafnir/internal/sparse"
	"fafnir/internal/tensor"
)

// Schedule is the Fig. 8 plan — multiply the matrix chunk by chunk, then
// merge the partial streams VectorSize at a time until one is left — with
// the constants of the accelerator that runs it. Fafnir and Two-Step are two
// values of this type (Engine.Schedule, twostep.Engine.Schedule): the same
// rounds over the same streaming memory, different phase throughputs, which
// is the paper's own reading of Fig. 14.
type Schedule struct {
	// Name prefixes the schedule's errors.
	Name string
	// Ranks is the number of memory ranks streamed in parallel.
	Ranks int
	// VectorSize is the column-chunk width and the merge fan-in.
	VectorSize int
	// ClockMHz is the accelerator clock, the domain of every reported
	// cycle; DRAMClockMHz is the domain memory completions arrive in.
	ClockMHz, DRAMClockMHz float64
	// MultElemsPerCycle and MergeElemsPerCycle are the aggregate compute
	// throughputs of iteration 0 and of the merge iterations.
	MultElemsPerCycle, MergeElemsPerCycle float64
	// Fill is the pipeline-fill latency paid once per iteration: the
	// partial results of one iteration must drain before the next
	// re-streams them.
	Fill sim.Cycle
	// KeepZero keeps a chunk's partial sum that cancelled to exactly zero
	// in its stream: the Fafnir leaves forward whatever they reduce, while
	// Two-Step's first step emits non-zeros only.
	KeepZero bool
}

// Result is the outcome of one SpMV run.
type Result struct {
	// Y is the product vector.
	Y tensor.Vector
	// Plan is the executed schedule.
	Plan *Plan
	// MultiplyCycles and MergeCycles split the runtime by iteration type
	// (Fafnir wins the multiply — Two-Step's "step 1" — and Two-Step wins
	// the merge: Fig. 14's discussion).
	MultiplyCycles, MergeCycles sim.Cycle
	// TotalCycles is the end-to-end runtime in engine cycles.
	TotalCycles sim.Cycle
	// ElementsStreamed counts matrix and partial elements read from memory.
	ElementsStreamed int
	// BytesStreamed is the corresponding traffic.
	BytesStreamed uint64
}

// round charges one round: elems elements stream from memory spread over the
// ranks (8 B each: value + row index) starting at memClock, and the
// accelerator processes them at elemsPerCycle no earlier than peDone (rounds
// of one iteration pipeline back to back; the slower of memory and compute
// sets the sustained rate). It returns the updated clocks.
func (s Schedule) round(mem *dram.System, memClock, peDone sim.Cycle, elems int, elemsPerCycle float64) (sim.Cycle, sim.Cycle, error) {
	if elems == 0 {
		return memClock, peDone, nil
	}
	perRank := (elems + s.Ranks - 1) / s.Ranks
	var memDone sim.Cycle
	for r := 0; r < s.Ranks; r++ {
		done, err := mem.StreamRead(memClock, r, 0, perRank*8, dram.DestLocal)
		if err != nil {
			return 0, 0, err
		}
		memDone = sim.Max(memDone, done)
	}
	compute := sim.Cycle(float64(elems)/elemsPerCycle + 1)
	end := sim.Max(sim.Rescale(memDone, s.DRAMClockMHz, s.ClockMHz), peDone+compute)
	return memDone, end, nil
}

// spill writes a round's partial stream to memory for the merge iteration
// that re-reads it, spreading the bytes over the ranks.
func (s Schedule) spill(mem *dram.System, clock sim.Cycle, p *PartialStream) (sim.Cycle, error) {
	if p.Len() == 0 {
		return clock, nil
	}
	perRank := (p.Bytes() + s.Ranks - 1) / s.Ranks
	done := clock
	for r := 0; r < s.Ranks; r++ {
		end, err := mem.StreamWrite(clock, r, 0, perRank)
		if err != nil {
			return 0, err
		}
		done = sim.Max(done, end)
	}
	return done, nil
}

// Run computes y = m*x with full timing against the DRAM model. Iteration 0
// multiplies chunk by chunk; every later iteration merges the previous
// one's streams; a round's output spills to memory unless it is the final
// result, which goes to the host.
func (s Schedule) Run(m *sparse.LIL, x tensor.Vector, mem *dram.System) (*Result, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("%s: operand of %d elements against %d columns", s.Name, len(x), m.Cols)
	}
	plan, err := NewPlan(m.Cols, s.VectorSize)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: plan}
	var streams []*PartialStream
	var clock, peClock sim.Cycle // DRAM-domain and accelerator-domain time
	cur := m.Cursor()
	for iter, n := 0, m.Cols; iter == 0 || n > 1; iter++ {
		if iter >= plan.Iterations() {
			return nil, fmt.Errorf("%s: merge iteration %d beyond plan %v", s.Name, iter, plan)
		}
		rate := s.MergeElemsPerCycle
		if iter == 0 {
			rate = s.MultElemsPerCycle
		}
		var next []*PartialStream
		for lo := 0; lo < n; lo += s.VectorSize {
			hi := min(lo+s.VectorSize, n)
			var out *PartialStream
			elems := 0
			if iter == 0 {
				rows, sums, n := cur.MulChunk(hi, x, s.KeepZero)
				out, elems = &PartialStream{Rows: rows, Vals: sums}, n
			} else {
				for _, p := range streams[lo:hi] {
					elems += p.Len()
				}
				out = MergeStreams(streams[lo:hi], m.Rows)
			}
			next = append(next, out)
			res.ElementsStreamed += elems
			res.BytesStreamed += uint64(elems) * 8
			if clock, peClock, err = s.round(mem, clock, peClock, elems, rate); err != nil {
				return nil, err
			}
			if iter+1 < plan.Iterations() {
				if clock, err = s.spill(mem, clock, out); err != nil {
					return nil, err
				}
			}
		}
		if len(next) != plan.RoundsPerIteration[iter] {
			return nil, fmt.Errorf("%s: iteration %d produced %d streams, plan says %d",
				s.Name, iter, len(next), plan.RoundsPerIteration[iter])
		}
		streams, n = next, len(next)
		peClock += s.Fill
		if iter == 0 {
			res.MultiplyCycles = peClock
		}
	}
	res.MergeCycles = peClock - res.MultiplyCycles
	res.TotalCycles = peClock

	res.Y = tensor.New(m.Rows)
	for i, r := range streams[0].Rows {
		res.Y[r] = streams[0].Vals[i]
	}
	return res, nil
}

// Executor returns the schedule as a solver/graph SpMV executor (the func
// shape of solver.SpMV): each product is timed against a fresh DDR4 system,
// so it reports a per-call service time, not a position on one clock.
func (s Schedule) Executor() func(*sparse.LIL, tensor.Vector) (tensor.Vector, sim.Cycle, error) {
	return func(m *sparse.LIL, x tensor.Vector) (tensor.Vector, sim.Cycle, error) {
		res, err := s.Run(m, x, dram.MustSystem(dram.DDR4()))
		if err != nil {
			return nil, 0, err
		}
		return res.Y, res.TotalCycles, nil
	}
}
