// Package fafnir implements the paper's primary contribution: the
// near-memory intelligent reduction tree. The leaves of the tree attach to
// the ranks of a DDR4 memory system; every node is a processing element (PE)
// that inspects the headers of its two input streams and decides, per entry,
// whether to reduce two values into one, forward them unchanged, or merge
// duplicate outputs. Because the tree spans *all* ranks, any set of
// embedding vectors — no matter which ranks they live on — is fully reduced
// before leaving the memory system.
//
// The package provides two engines over one functional core:
//
//   - Engine.Lookup runs a batch functionally and returns the reduced output
//     vector of every query, validated in tests against the golden reference
//     in package embedding.
//   - Engine.TimedLookup additionally charges every DRAM access to the
//     shared dram.System and every PE action to the Table IV pipeline
//     latencies, returning the latency/throughput breakdown the paper's
//     Figs. 11-13 report.
package fafnir

import (
	"fmt"

	"fafnir/internal/sim"
	"fafnir/internal/tensor"
)

// Latencies holds the compute-unit latencies of Table IV, in PE-clock cycles
// at 200 MHz. The critical path of a pipeline stage is compare + reduce,
// since reduce and forward run on parallel paths and reduce is slower.
type Latencies struct {
	// Compare is the header-comparison latency (queries vs indices fields).
	Compare sim.Cycle
	// ReduceValue is the element-wise value reduction latency.
	ReduceValue sim.Cycle
	// ReduceHeader is the header-update latency of a reduce action.
	ReduceHeader sim.Cycle
	// Forward is the bypass-path latency.
	Forward sim.Cycle
}

// TableIV returns the published FPGA compute-unit latencies.
func TableIV() Latencies {
	return Latencies{Compare: 12, ReduceValue: 4, ReduceHeader: 16, Forward: 2}
}

// StageLatency is the pipeline-stage critical path: compare followed by the
// slower of the two parallel action paths (reduce beats forward).
func (l Latencies) StageLatency() sim.Cycle {
	reduce := sim.Max(l.ReduceValue, l.ReduceHeader)
	return l.Compare + sim.Max(reduce, l.Forward)
}

// Config parameterizes a Fafnir tree instance.
type Config struct {
	// NumRanks is the number of memory ranks the tree's leaves attach to.
	NumRanks int
	// LeafFanIn is the number of ranks per leaf PE (the paper's 1PE:2R
	// configuration uses 2; 1PE:1R and 1PE:4R are the published variants).
	LeafFanIn int
	// BatchCapacity is B, the batch size the hardware buffers are sized
	// for. Larger software batches are served as several hardware batches.
	BatchCapacity int
	// VectorDim is the embedding dimension (elements per vector).
	VectorDim int
	// Op is the pooling operation applied through the tree.
	Op tensor.ReduceOp
	// Latency holds the PE pipeline latencies.
	Latency Latencies
	// ClockMHz is the PE clock (200 MHz on the paper's FPGA).
	ClockMHz float64
	// DRAMClockMHz is the memory clock, for converting memory completion
	// times into PE cycles.
	DRAMClockMHz float64
	// Parallelism is how many hardware batches of one lookup compute their
	// functional pass at once, ahead of the batch being folded or timed (see
	// passSource); within a hardware batch the tree evaluates serially. It
	// changes wall-clock speed only — outputs, PE statistics, and cycle
	// counts are bit-identical at every setting. 0 selects
	// runtime.GOMAXPROCS(0); 1 runs everything on the caller's goroutine.
	Parallelism int
}

// Default returns the paper's evaluated configuration: 32 ranks, 1PE:2R,
// batch capacity 32, 512 B vectors (128 float32 elements), sum pooling,
// Table IV latencies at 200 MHz against a 1200 MHz memory clock.
func Default() Config {
	return Config{
		NumRanks:      32,
		LeafFanIn:     2,
		BatchCapacity: 32,
		VectorDim:     128,
		Op:            tensor.OpSum,
		Latency:       TableIV(),
		ClockMHz:      200,
		DRAMClockMHz:  1200,
	}
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.NumRanks <= 0:
		return fmt.Errorf("fafnir: NumRanks must be positive, got %d", c.NumRanks)
	case c.LeafFanIn <= 0:
		return fmt.Errorf("fafnir: LeafFanIn must be positive, got %d", c.LeafFanIn)
	case c.NumRanks%c.LeafFanIn != 0:
		return fmt.Errorf("fafnir: NumRanks %d not divisible by LeafFanIn %d", c.NumRanks, c.LeafFanIn)
	case c.BatchCapacity <= 0:
		return fmt.Errorf("fafnir: BatchCapacity must be positive, got %d", c.BatchCapacity)
	case c.VectorDim <= 0:
		return fmt.Errorf("fafnir: VectorDim must be positive, got %d", c.VectorDim)
	case !c.Op.Valid():
		return fmt.Errorf("fafnir: invalid reduce op %d", c.Op)
	case c.ClockMHz <= 0:
		return fmt.Errorf("fafnir: ClockMHz must be positive, got %v", c.ClockMHz)
	case c.DRAMClockMHz <= 0:
		return fmt.Errorf("fafnir: DRAMClockMHz must be positive, got %v", c.DRAMClockMHz)
	case c.Parallelism < 0:
		return fmt.Errorf("fafnir: Parallelism must be non-negative, got %d", c.Parallelism)
	}
	return nil
}

// NumLeaves reports the number of leaf PEs.
func (c Config) NumLeaves() int { return c.NumRanks / c.LeafFanIn }

// DRAMToPE converts a completion time in memory-clock cycles to PE-clock
// cycles, rounding up.
func (c Config) DRAMToPE(d sim.Cycle) sim.Cycle {
	return sim.Rescale(d, c.DRAMClockMHz, c.ClockMHz)
}

// VectorBytes reports the size of one embedding vector in bytes (float32
// elements).
func (c Config) VectorBytes() int { return 4 * c.VectorDim }
