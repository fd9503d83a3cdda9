package spmv

import (
	"fmt"
	"math"
	"math/bits"

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
func (s Schedule) round(mem *dram.System, memClock sim.MemCycle, peDone sim.Cycle, elems int, elemsPerCycle float64) (sim.MemCycle, sim.Cycle, error) {
	if elems == 0 {
		return memClock, peDone, nil
	}
	perRank := (elems + s.Ranks - 1) / s.Ranks
	var memDone sim.MemCycle
	for r := 0; r < s.Ranks; r++ {
		done, err := mem.StreamRead(memClock, r, 0, perRank*8, dram.DestLocal)
		if err != nil {
			return 0, 0, err
		}
		memDone = sim.Max(memDone, done)
	}
	compute := sim.Cycle(float64(elems)/elemsPerCycle + 1)
	end := sim.Max(mem.ToPE(memDone), peDone+compute)
	return memDone, end, nil
}

// spill writes a round's output stream of elems partial sums (8 B each)
// to memory for the merge iteration that re-reads it, spreading the bytes
// over the ranks.
func (s Schedule) spill(mem *dram.System, clock sim.MemCycle, elems int) (sim.MemCycle, error) {
	if elems == 0 {
		return clock, nil
	}
	perRank := (elems*8 + s.Ranks - 1) / s.Ranks
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

// partial is a row's sum over one stream of an iteration: k numbers the
// stream (the chunk in iteration 0, the merge group after it).
type partial struct {
	k uint32
	v float32
}

// Run computes y = m*x with full timing against the DRAM model. Iteration 0
// multiplies chunk by chunk; every later iteration merges the previous
// one's streams VectorSize at a time; a round's output spills to memory
// unless it is the final result, which goes to the host.
//
// The streams themselves are never built. One pass over the rows sums each
// row's entries per chunk in column order, drops a partial that cancelled
// to zero unless KeepZero is set, and folds the kept partials up the
// iterations as the merges would: each group's partials added into zero in
// stream order, a merged row counted whatever its sum. With at most one
// merge iteration that fold is the row's partials added into zero in chunk
// order, and a row of short runs per chunk is summed that way without a
// branch per partial (sumRows). The pass counts every round's input
// elements and output stream length on the way, and the rounds then replay
// those counts against the memory.
func (s Schedule) Run(m *sparse.LIL, x tensor.Vector, mem *dram.System) (*Result, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("%s: operand of %d elements against %d columns", s.Name, len(x), m.Cols)
	}
	plan, err := NewPlan(m.Cols, s.VectorSize)
	if err != nil {
		return nil, err
	}
	rounds := plan.RoundsPerIteration
	// lens lists the output stream lengths of every round, iteration by
	// iteration, and entries[k] the matrix elements of chunk k.
	total := 0
	for _, n := range rounds {
		total += n
	}
	lens := make([]int, total+rounds[0])
	entries := lens[total:]
	res := &Result{Plan: plan, Y: tensor.New(m.Rows)}
	if w := s.VectorSize; len(rounds) <= 2 && rounds[0] <= maxChunks && w&(w-1) == 0 {
		s.sumRows(m, x, res.Y, lens[:total], entries)
	} else {
		v := uint32(s.VectorSize)
		kept := make([]partial, rounds[0])
		for r, cols := range m.ColIdx {
			vals := m.Vals[r][:len(cols)]
			n := 0
			for i := 0; i < len(cols); {
				k := uint32(cols[i]) / v
				var acc float32
				e := i
				for hi := int32((k + 1) * v); e < len(cols) && cols[e] < hi; e++ {
					acc += vals[e] * x[cols[e]]
				}
				entries[k] += e - i
				if acc != 0 || s.KeepZero {
					kept[n] = partial{k, acc}
					n++
					lens[k]++
				}
				i = e
			}
			// Fold in place: a group's sum goes where its first partial was.
			for it, base := 1, 0; it < len(rounds); it++ {
				base += rounds[it-1]
				w := 0
				for i := 0; i < n; w++ {
					g := kept[i].k / v
					var sum float32
					for end := (g + 1) * v; i < n && kept[i].k < end; i++ {
						sum += kept[i].v
					}
					kept[w] = partial{g, sum}
					lens[base+int(g)]++
				}
				n = w
			}
			if n == 1 { // the last iteration has one stream
				res.Y[r] = kept[0].v
			}
		}
	}
	// The rounds issue at the memory's current cycle, clock on the memory's
	// clock and peClock on the PE clock; every reported cycle is the span
	// from there.
	clock := mem.Now()
	start := mem.ToPE(clock)
	peClock := start
	// A round of iteration 0 reads its chunk's entries, a later one the
	// streams of its group; out lists the lengths of the streams written.
	in, out := entries, lens
	for it, n := range rounds {
		rate := s.MergeElemsPerCycle
		if it == 0 {
			rate = s.MultElemsPerCycle
		}
		for k := 0; k < n; k++ {
			elems := in[k]
			if it > 0 {
				elems = 0
				for _, l := range in[k*s.VectorSize : min((k+1)*s.VectorSize, len(in))] {
					elems += l
				}
			}
			res.ElementsStreamed += elems
			res.BytesStreamed += uint64(elems) * 8
			if clock, peClock, err = s.round(mem, clock, peClock, elems, rate); err != nil {
				return nil, err
			}
			if it+1 < len(rounds) {
				if clock, err = s.spill(mem, clock, out[k]); err != nil {
					return nil, err
				}
			}
		}
		in, out = out[:n], out[n:]
		peClock += s.Fill
		if it == 0 {
			res.MultiplyCycles = peClock - start
		}
	}
	res.TotalCycles = peClock - start
	res.MergeCycles = res.TotalCycles - res.MultiplyCycles
	return res, nil
}

// maxChunks bounds the chunk count of the plans sumRows runs: it keeps its
// counts in fixed arrays, which a byte indexes without a bounds check.
const maxChunks = 256

// sumRows is the row pass of a plan with at most one merge iteration, at
// most maxChunks chunks and a power-of-two VectorSize. Its one merge group
// adds a row's kept partials into zero in chunk order, so each partial goes
// straight into y[r]; a dropped partial is a zero, which adds exactly. lens
// takes the chunk streams' lengths, then the merge stream's if there is
// one. A row with long runs per chunk (at least four entries a chunk it
// spans, as in every banded row) sums each chunk in a loop of its own. A
// row of short runs would mispredict one loop exit per partial, so with
// KeepZero, where every partial is kept, shortRow sums it branch-free.
func (s Schedule) sumRows(m *sparse.LIL, x, y tensor.Vector, lens, entries []int) {
	sh := uint(min(bits.TrailingZeros(uint(s.VectorSize)), 31)) // no column reaches 2^31
	var cnt [2][maxChunks]int                                   // per chunk: partials kept, entries
	rowsKept := 0
	for r, cols := range m.ColIdx {
		vals := m.Vals[r][:len(cols)]
		if l := len(cols); s.KeepZero && l > 0 && l < 4*int(uint32(cols[l-1])>>sh-uint32(cols[0])>>sh+1) {
			y[r] = shortRow(cols, vals, x, &cnt, sh)
			rowsKept++
			continue
		}
		sum, kept := float32(0), uint32(0)
		for i := 0; i < len(cols); {
			k := uint32(cols[i]) >> sh
			var acc float32
			e := i
			for hi := int64(k+1) << sh; e < len(cols) && int64(cols[e]) < hi; e++ {
				acc += vals[e] * x[cols[e]]
			}
			keep := b2u(acc != 0 || s.KeepZero)
			sum += acc
			cnt[0][uint8(k)] += int(keep)
			cnt[1][uint8(k)] += e - i
			kept |= keep
			i = e
		}
		y[r] = sum
		rowsKept += int(kept)
	}
	copy(entries, cnt[1][:])
	copy(lens, cnt[0][:len(entries)])
	copy(lens[len(entries):], []int{rowsKept}) // the merge stream, if any
}

// shortRow sums a row for sumRows without a branch per partial: per entry,
// a chunk change b (0 or 1) selects the open partial's bits into the sum (a
// +0 otherwise, which adds exactly: the sum starts at +0, so it is never
// -0), restarts the partial at +0 and counts the opened chunk's partial.
// Selecting bits, not multiplying by b, keeps an infinite partial infinite
// where 0*Inf would be NaN.
func shortRow(cols []int32, vals []float32, x tensor.Vector, cnt *[2][maxChunks]int, sh uint) float32 {
	var sum, cur float32
	prev := ^uint32(0) // the first entry opens a partial like any chunk change
	for i, c := range cols {
		k := uint32(c) >> (sh & 31) // sh < 32: the mask spares the shift a range check
		b := b2u(k != prev)
		cnt[0][uint8(k)] += int(b)
		cnt[1][uint8(k)]++
		sum += math.Float32frombits(math.Float32bits(cur) & -b)
		cur = math.Float32frombits(math.Float32bits(cur)&^-b) + vals[i]*x[c]
		prev = k
	}
	return sum + cur
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
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
