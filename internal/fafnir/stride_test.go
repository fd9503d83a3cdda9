package fafnir_test

import (
	"fmt"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/memmap"
	"fafnir/internal/oracle"
	"fafnir/internal/tensor"
)

// The engine carries headers as bitsets of ceil(rows/64) words over a hardware
// batch's unique rows. These tests pin the word-count boundaries — one row,
// one full word, one bit into the second word, two and eight full words, and
// past eight — against the independent oracle, on every lookup mode.

const (
	strideQueries = 64 // one hardware batch at BatchCapacity 64
	strideIndices = 16
)

// strideBatch builds one hardware batch of strideQueries x strideIndices index
// slots that touches exactly unique distinct rows (unique <= 1024, not a
// multiple of 7): slot s reads row (7s mod unique), so consecutive slots sweep
// every residue, queries overlap irregularly, and — for small unique — whole
// queries repeat. Row r lives at global index 37r+5: the low byte wraps every
// seven rows, so Key order (little-endian bytes) disagrees with numeric order
// throughout.
func strideBatch(unique int, op tensor.ReduceOp) embedding.Batch {
	b := embedding.Batch{Op: op}
	for q := 0; q < strideQueries; q++ {
		var idx []header.Index
		for t := 0; t < strideIndices; t++ {
			row := (q*strideIndices + t) * 7 % unique
			idx = append(idx, header.Index(37*row+5))
		}
		b.Queries = append(b.Queries, embedding.Query{Indices: header.NewIndexSet(idx...)})
	}
	return b
}

func strideFixture(t *testing.T) (*fafnir.Engine, *embedding.Store, *memmap.Layout, dram.Config) {
	t.Helper()
	cfg := fafnir.Default()
	cfg.BatchCapacity = strideQueries
	cfg.VectorDim = 16
	e, err := fafnir.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := dram.DDR4()
	mcfg.InterleaveBytes = 4 * cfg.VectorDim // one vector per rank slot
	layout := memmap.Uniform(mcfg, mcfg.InterleaveBytes, 32, 2048)
	return e, embedding.MustStore(layout.TotalRows(), 16, 9), layout, mcfg
}

func TestStrideBoundariesMatchOracle(t *testing.T) {
	e, store, layout, mcfg := strideFixture(t)
	ops := []tensor.ReduceOp{tensor.OpSum, tensor.OpMean, tensor.OpMin, tensor.OpMax}
	for _, unique := range []int{1, 64, 65, 128, 512, 1000} {
		for _, op := range ops {
			t.Run(fmt.Sprintf("rows=%d/%s", unique, op), func(t *testing.T) {
				b := strideBatch(unique, op)
				if got := b.UniqueIndices().Len(); got != unique {
					t.Fatalf("batch touches %d rows, want %d", got, unique)
				}
				want, err := oracle.Lookup(store, b)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Lookup(store, layout, b)
				if err != nil {
					t.Fatal(err)
				}
				if d := oracle.Diff(res.Outputs, want); d != "" {
					t.Fatalf("Lookup: %s", d)
				}
				if res.MemoryReads != unique || res.HWBatches != 1 {
					t.Fatalf("Lookup: %d reads in %d hardware batches, want %d in 1", res.MemoryReads, res.HWBatches, unique)
				}
				// Dedup off repeats a row across accesses: several leaves
				// carry the same row bit and the same data.
				for _, dedup := range []bool{true, false} {
					tres, err := e.TimedLookup(store, layout, dram.MustSystem(mcfg), b, dedup)
					if err != nil {
						t.Fatalf("TimedLookup dedup=%v: %v", dedup, err)
					}
					if d := oracle.Diff(tres.Outputs, want); d != "" {
						t.Fatalf("TimedLookup dedup=%v: %s", dedup, d)
					}
					reads := unique
					if !dedup {
						reads = b.TotalAccesses()
					}
					if tres.MemoryReads != reads {
						t.Fatalf("TimedLookup dedup=%v: %d reads, want %d", dedup, tres.MemoryReads, reads)
					}
				}
			})
		}
	}
}

// A dark rank's reads are served by the replica placement, so their leaves
// enter the tree somewhere else; the row space must follow them.
func TestStrideFaultedRemapMovesLeaf(t *testing.T) {
	e, store, layout, mcfg := strideFixture(t)
	b := strideBatch(65, tensor.OpSum)
	want, err := oracle.Lookup(store, b)
	if err != nil {
		t.Fatal(err)
	}
	first := b.Queries[0].Indices[0]
	dark := layout.Rank(first)
	if replica, _, err := layout.Replica(first); err != nil || replica == dark {
		t.Fatalf("replica of index %d on rank %d (err %v): the remap would not move its leaf", first, replica, err)
	}
	inj, err := fault.NewInjector(fault.Plan{RankFailures: []fault.RankFailure{{Rank: dark, At: 0}}}, mcfg.TotalRanks())
	if err != nil {
		t.Fatal(err)
	}
	mem := dram.MustSystem(mcfg)
	mem.AttachFaults(inj)
	res, err := e.TimedLookup(store, layout, mem, b, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := oracle.Diff(res.Outputs, want); d != "" {
		t.Fatal(d)
	}
	if res.Degraded == nil || res.Degraded.RemappedReads == 0 {
		t.Fatalf("no read was remapped: %+v", res.Degraded)
	}
}
