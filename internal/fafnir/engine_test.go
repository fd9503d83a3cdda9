package fafnir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/memmap"
	"fafnir/internal/tensor"
)

// modPlacement maps index i to rank i mod ranks — a pure-functional stand-in
// for memmap.Layout in tests.
type modPlacement struct {
	ranks int
	bytes int
}

func (p modPlacement) Rank(idx header.Index) int { return int(idx) % p.ranks }
func (p modPlacement) Addr(idx header.Index) dram.Addr {
	return dram.Addr(uint64(idx) * uint64(p.bytes))
}
func (p modPlacement) VectorBytes() int { return p.bytes }

// lookup runs b through the timed engine with deduplication on a fresh
// DDR4 memory.
func lookup(e *Engine, store *embedding.Store, layout Placement, b embedding.Batch) (*TimedResult, error) {
	return e.TimedLookup(store, layout, dram.MustSystem(dram.DDR4()), b, true)
}

// tablePlacement emulates Fig. 6: index "rt" (row digit, table digit) lives
// in the rank of its table digit.
type tablePlacement struct{ bytes int }

func (p tablePlacement) Rank(idx header.Index) int { return int(idx) % 10 }
func (p tablePlacement) Addr(idx header.Index) dram.Addr {
	return dram.Addr(uint64(idx) * uint64(p.bytes))
}
func (p tablePlacement) VectorBytes() int { return p.bytes }

func fig6Batch() embedding.Batch {
	return embedding.Batch{
		Queries: []embedding.Query{
			{Indices: header.NewIndexSet(11, 44, 32, 83, 77)}, // a
			{Indices: header.NewIndexSet(50, 32, 83, 26)},     // b
			{Indices: header.NewIndexSet(50, 44, 11, 94, 26)}, // c
			{Indices: header.NewIndexSet(83, 77)},             // d
		},
		Op: tensor.OpSum,
	}
}

func smallEngine(t *testing.T, ranks, fanIn, capacity, dim int) *Engine {
	t.Helper()
	cfg := Default()
	cfg.NumRanks = ranks
	cfg.LeafFanIn = fanIn
	cfg.BatchCapacity = capacity
	cfg.VectorDim = dim
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLookupFig6 runs the paper's Fig. 6 worked example end to end: four
// queries over eight tables (one per rank), including the same-rank pair
// (44, 94) in table 4 and the shared value (32, 83) of queries a and b.
func TestLookupFig6(t *testing.T) {
	e := smallEngine(t, 8, 2, 4, 4)
	store := embedding.MustStore(100, 4, 77)
	b := fig6Batch()
	res, err := lookup(e, store, tablePlacement{bytes: 16}, b)
	if err != nil {
		t.Fatal(err)
	}
	golden := b.MustGolden(store)
	if i := VerifyAgainstGolden(res.Outputs, golden); i >= 0 {
		t.Fatalf("query %d mismatches golden: got %v want %v", i, res.Outputs[i], golden[i])
	}
	// Dedup: 8 unique indices for 16 raw accesses.
	if res.MemoryReads != 8 {
		t.Fatalf("MemoryReads = %d, want 8", res.MemoryReads)
	}
	// "because of merging, the size of input A and B never exceeds the
	// batch size (i.e., four)".
	if res.MaxOccupancy > 4 {
		t.Fatalf("occupancy %d exceeds batch size 4", res.MaxOccupancy)
	}
	if res.PETotals.Reduces == 0 || res.PETotals.Forwards == 0 {
		t.Fatalf("implausible PE totals %+v", res.PETotals)
	}
}

func TestLookupMatchesGoldenRandom(t *testing.T) {
	dims := []int{4, 8}
	rankCounts := []int{32, 8, 6}
	for _, dist := range []embedding.Distribution{embedding.Uniform, embedding.Zipf} {
		for _, ranks := range rankCounts {
			for seed := int64(0); seed < 4; seed++ {
				e := smallEngine(t, ranks, 2, 32, dims[seed%2])
				store := embedding.MustStore(4096, dims[seed%2], uint64(seed))
				gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
					NumQueries: 16,
					QuerySize:  8,
					Rows:       4096,
					Dist:       dist,
					ZipfS:      1.3,
					Seed:       seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				b := gen.Batch(tensor.OpSum)
				res, err := lookup(e, store, modPlacement{ranks: ranks, bytes: 4 * dims[seed%2]}, b)
				if err != nil {
					t.Fatalf("dist=%v ranks=%d seed=%d: %v", dist, ranks, seed, err)
				}
				golden := b.MustGolden(store)
				if i := VerifyAgainstGolden(res.Outputs, golden); i >= 0 {
					t.Fatalf("dist=%v ranks=%d seed=%d query %d mismatch", dist, ranks, seed, i)
				}
				if res.MaxOccupancy > 16 {
					t.Fatalf("dist=%v ranks=%d seed=%d: occupancy %d exceeds batch size 16", dist, ranks, seed, res.MaxOccupancy)
				}
			}
		}
	}
}

func TestLookupAllOps(t *testing.T) {
	for _, op := range []tensor.ReduceOp{tensor.OpSum, tensor.OpMin, tensor.OpMax, tensor.OpMean} {
		e := smallEngine(t, 8, 2, 8, 4)
		store := embedding.MustStore(512, 4, 3)
		gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
			NumQueries: 8, QuerySize: 5, Rows: 512, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		b := gen.Batch(op)
		res, err := lookup(e, store, modPlacement{ranks: 8, bytes: 16}, b)
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
		golden := b.MustGolden(store)
		if i := VerifyAgainstGolden(res.Outputs, golden); i >= 0 {
			t.Fatalf("op %v query %d mismatch: got %v want %v", op, i, res.Outputs[i], golden[i])
		}
	}
}

func TestLookupSingleIndexQueries(t *testing.T) {
	e := smallEngine(t, 8, 2, 4, 4)
	store := embedding.MustStore(64, 4, 5)
	b := embedding.Batch{
		Queries: []embedding.Query{
			{Indices: header.NewIndexSet(3)},
			{Indices: header.NewIndexSet(3)}, // identical query
			{Indices: header.NewIndexSet(12)},
		},
		Op: tensor.OpSum,
	}
	res, err := lookup(e, store, modPlacement{ranks: 8, bytes: 16}, b)
	if err != nil {
		t.Fatal(err)
	}
	golden := b.MustGolden(store)
	if i := VerifyAgainstGolden(res.Outputs, golden); i >= 0 {
		t.Fatalf("query %d mismatch", i)
	}
	if res.MemoryReads != 2 {
		t.Fatalf("MemoryReads = %d, want 2 (dedup of identical queries)", res.MemoryReads)
	}
}

func TestLookupSplitsSoftwareBatches(t *testing.T) {
	e := smallEngine(t, 8, 2, 4, 4) // hardware capacity 4
	store := embedding.MustStore(1024, 4, 8)
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: 10, QuerySize: 4, Rows: 1024, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.Batch(tensor.OpSum)
	res, err := lookup(e, store, modPlacement{ranks: 8, bytes: 16}, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.HWBatches != 3 {
		t.Fatalf("HWBatches = %d, want 3 (10 queries / capacity 4)", res.HWBatches)
	}
	golden := b.MustGolden(store)
	if i := VerifyAgainstGolden(res.Outputs, golden); i >= 0 {
		t.Fatalf("query %d mismatch", i)
	}
}

func TestLookupRejectsOutOfRangeRank(t *testing.T) {
	e := smallEngine(t, 4, 2, 4, 4)
	store := embedding.MustStore(64, 4, 1)
	b := embedding.Batch{
		Queries: []embedding.Query{{Indices: header.NewIndexSet(1, 2)}},
		Op:      tensor.OpSum,
	}
	// Placement claims 8 ranks but the tree has 4.
	if _, err := lookup(e, store, modPlacement{ranks: 8, bytes: 16}, b); err == nil {
		// Indices 1 and 2 map to ranks 1 and 2, which fit; use a bigger one.
		b.Queries[0].Indices = header.NewIndexSet(6, 7)
		if _, err := lookup(e, store, modPlacement{ranks: 8, bytes: 16}, b); err == nil {
			t.Fatal("rank beyond tree accepted")
		}
	}
}

func timedFixture(t *testing.T, batchCap int) (*Engine, *embedding.Store, *memmap.Layout, *dram.System) {
	t.Helper()
	cfg := Default()
	cfg.BatchCapacity = batchCap
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := dram.DDR4()
	layout := memmap.Uniform(mcfg, 512, 32, 4096)
	store := embedding.MustStore(layout.TotalRows(), 128, 21)
	return e, store, layout, dram.MustSystem(mcfg)
}

func genBatch(t *testing.T, n, q int, rows uint64, seed int64) embedding.Batch {
	t.Helper()
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: n, QuerySize: q, Rows: rows, Dist: embedding.Zipf, ZipfS: 1.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen.Batch(tensor.OpSum)
}

func TestTimedLookupBasics(t *testing.T) {
	e, store, layout, mem := timedFixture(t, 32)
	b := genBatch(t, 16, 16, layout.TotalRows(), 3)
	res, err := e.TimedLookup(store, layout, mem, b, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles == 0 || res.MemCycles == 0 {
		t.Fatalf("zero timing: %+v", res)
	}
	if res.MemCycles > res.TotalCycles {
		t.Fatalf("memory %d exceeds total %d", res.MemCycles, res.TotalCycles)
	}
	if res.BytesRead != uint64(res.MemoryReads)*512 {
		t.Fatalf("BytesRead %d for %d reads", res.BytesRead, res.MemoryReads)
	}
	golden := b.MustGolden(store)
	if i := VerifyAgainstGolden(res.Outputs, golden); i >= 0 {
		t.Fatalf("query %d mismatch", i)
	}
	if res.Seconds(e.Config()) <= 0 {
		t.Fatal("non-positive wall time")
	}
}

func TestTimedLookupDedupReducesTraffic(t *testing.T) {
	e, store, layout, mem := timedFixture(t, 32)
	b := genBatch(t, 32, 16, 4096, 5) // small row space -> heavy sharing
	withDedup, err := e.TimedLookup(store, layout, mem, b, true)
	if err != nil {
		t.Fatal(err)
	}
	without, err := e.TimedLookup(store, layout, mem, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if withDedup.MemoryReads >= without.MemoryReads {
		t.Fatalf("dedup reads %d not below raw %d", withDedup.MemoryReads, without.MemoryReads)
	}
	if withDedup.TotalCycles >= without.TotalCycles {
		t.Fatalf("dedup latency %d not below raw %d", withDedup.TotalCycles, without.TotalCycles)
	}
	// Functional results identical either way.
	if i := VerifyAgainstGolden(without.Outputs, b.MustGolden(store)); i >= 0 {
		t.Fatalf("no-dedup query %d mismatch", i)
	}
}

func TestTimedLookupScalesWithRanks(t *testing.T) {
	// More ranks -> more parallel reads -> lower latency for the same batch.
	// The batch must be large enough to be memory-bound (the paper's Fig. 12
	// regime); tiny batches are tree-depth-bound and scale differently.
	latency := map[int]float64{}
	for _, ranks := range []int{2, 8, 32} {
		cfg := Default()
		cfg.NumRanks = ranks
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mcfg := dram.DDR4()
		// Shrink the geometry so TotalRanks matches.
		mcfg.Channels = 1
		mcfg.DIMMsPerChannel = ranks / 2
		if mcfg.DIMMsPerChannel == 0 {
			mcfg.DIMMsPerChannel = 1
			mcfg.RanksPerDIMM = ranks
		}
		layout := memmap.Uniform(mcfg, 512, 4, 4096)
		store := embedding.MustStore(layout.TotalRows(), 128, 2)
		mem := dram.MustSystem(mcfg)
		b := genBatch(t, 32, 16, layout.TotalRows(), 7)
		res, err := e.TimedLookup(store, layout, mem, b, true)
		if err != nil {
			t.Fatal(err)
		}
		latency[ranks] = float64(res.TotalCycles)
	}
	if !(latency[32] < latency[8] && latency[8] < latency[2]) {
		t.Fatalf("latency did not fall with rank count: %v", latency)
	}
}

func TestTimedLookupMultipleHWBatches(t *testing.T) {
	e, store, layout, mem := timedFixture(t, 8)
	b := genBatch(t, 24, 16, layout.TotalRows(), 11)
	res, err := e.TimedLookup(store, layout, mem, b, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.HWBatches != 3 {
		t.Fatalf("HWBatches = %d, want 3", res.HWBatches)
	}
	if i := VerifyAgainstGolden(res.Outputs, b.MustGolden(store)); i >= 0 {
		t.Fatalf("query %d mismatch", i)
	}
}

// TestVerifyAgainstGolden: the first query whose output is missing, extra,
// NaN or off by any amount is reported.
func TestVerifyAgainstGolden(t *testing.T) {
	nan := float32(math.NaN())
	want := []tensor.Vector{{1, 2}, {3, 4}}
	for _, tc := range []struct {
		name string
		got  []tensor.Vector
		idx  int
	}{
		{"identical", want, -1},
		{"second differs", []tensor.Vector{{1, 2}, {3, 5}}, 1},
		{"second differs slightly", []tensor.Vector{{1, 2}, {3, 4.0005}}, 1},
		{"no outputs", nil, 0},
		{"missing output", []tensor.Vector{{1, 2}, nil}, 1},
		{"NaN output", []tensor.Vector{{nan, 2}, {3, 4}}, 0},
		{"extra output", []tensor.Vector{{1, 2}, {3, 4}, {5, 6}}, 2},
	} {
		if i := VerifyAgainstGolden(tc.got, want); i != tc.idx {
			t.Errorf("%s: VerifyAgainstGolden = %d, want %d", tc.name, i, tc.idx)
		}
	}
}

// Fuzz-style stress: many random small configurations, all must match golden.
func TestLookupStress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		ranks := []int{4, 6, 8, 12, 16}[rng.Intn(5)]
		fan := 2
		if ranks%4 == 0 && rng.Intn(2) == 0 {
			fan = 4
		}
		dim := 1 + rng.Intn(6)
		e := smallEngine(t, ranks, fan, 8, dim)
		rows := uint64(64 + rng.Intn(512))
		store := embedding.MustStore(rows, dim, uint64(trial))
		n := 1 + rng.Intn(12)
		q := 1 + rng.Intn(8)
		if uint64(q) > rows {
			q = int(rows)
		}
		gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
			NumQueries: n, QuerySize: q, Rows: rows, Seed: int64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		b := gen.Batch(tensor.OpSum)
		res, err := lookup(e, store, modPlacement{ranks: ranks, bytes: 4 * dim}, b)
		if err != nil {
			t.Fatalf("trial %d (ranks=%d fan=%d n=%d q=%d): %v", trial, ranks, fan, n, q, err)
		}
		if i := VerifyAgainstGolden(res.Outputs, b.MustGolden(store)); i >= 0 {
			t.Fatalf("trial %d query %d mismatch", trial, i)
		}
	}
}

func TestInteractiveLookup(t *testing.T) {
	e, store, layout, mem := timedFixture(t, 32)
	b := genBatch(t, 8, 16, layout.TotalRows(), 17)
	res, err := e.InteractiveLookup(store, layout, mem, b)
	if err != nil {
		t.Fatal(err)
	}
	golden := b.MustGolden(store)
	if i := VerifyAgainstGolden(res.Outputs, golden); i >= 0 {
		t.Fatalf("query %d mismatch", i)
	}
	// No dedup in interactive mode: every access reads memory.
	if res.MemoryReads != b.TotalAccesses() {
		t.Fatalf("MemoryReads = %d, want %d", res.MemoryReads, b.TotalAccesses())
	}
	if res.HWBatches != 8 {
		t.Fatalf("HWBatches = %d (one per query)", res.HWBatches)
	}
}

func TestInteractiveStage(t *testing.T) {
	// Reduce-value (4) beats forward (2); no compare in interactive mode.
	if got := TableIV().InteractiveStage(); got != 4 {
		t.Fatalf("InteractiveStage = %d, want 4", got)
	}
}

func TestInteractiveSingleQueryFasterThanBatchPath(t *testing.T) {
	// For one query, the comparison-free interactive pipeline beats the
	// batch path's full header processing.
	e, store, layout, _ := timedFixture(t, 32)
	b := genBatch(t, 1, 16, layout.TotalRows(), 19)
	inter, err := e.InteractiveLookup(store, layout, dram.MustSystem(dram.DDR4()), b)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := e.TimedLookup(store, layout, dram.MustSystem(dram.DDR4()), b, true)
	if err != nil {
		t.Fatal(err)
	}
	if inter.TotalCycles >= batch.TotalCycles {
		t.Fatalf("interactive %d not below batch %d for a single query", inter.TotalCycles, batch.TotalCycles)
	}
}

func TestInteractiveEmptyQuery(t *testing.T) {
	e, store, layout, mem := timedFixture(t, 32)
	b := embedding.Batch{Queries: []embedding.Query{{}}, Op: tensor.OpSum}
	res, err := e.InteractiveLookup(store, layout, mem, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outputs[0].Equal(tensor.New(128)) {
		t.Fatal("empty query should produce zeros")
	}
}

// A query with no indices is a legal host input: it reads nothing, owns no root
// output, and every lookup mode answers it with the zero vector the golden
// reference and the oracle give it — wherever it sits in the batch, including
// a hardware batch made of nothing else.
func TestEmptyQueryResolvesToZeroVector(t *testing.T) {
	e, store, layout, _ := timedFixture(t, 4)
	full := genBatch(t, 6, 8, layout.TotalRows(), 17)
	hole := func(positions ...int) embedding.Batch {
		b := embedding.Batch{Op: tensor.OpMean, Queries: append([]embedding.Query{}, full.Queries...)}
		for _, p := range positions {
			b.Queries[p] = embedding.Query{}
		}
		return b
	}
	batches := map[string]embedding.Batch{
		"middle":               hole(1),
		"first and last":       hole(0, 5),
		"whole hardware batch": hole(0, 1, 2, 3),
		"every query":          hole(0, 1, 2, 3, 4, 5),
	}
	modes := map[string]func(embedding.Batch) ([]tensor.Vector, error){
		"InteractiveLookup": func(b embedding.Batch) ([]tensor.Vector, error) {
			res, err := e.InteractiveLookup(store, layout, dram.MustSystem(dram.DDR4()), b)
			if err != nil {
				return nil, err
			}
			return res.Outputs, nil
		},
	}
	for _, dedup := range []bool{true, false} {
		modes[fmt.Sprintf("TimedLookup dedup=%v", dedup)] = func(b embedding.Batch) ([]tensor.Vector, error) {
			res, err := e.TimedLookup(store, layout, dram.MustSystem(dram.DDR4()), b, dedup)
			if err != nil {
				return nil, err
			}
			return res.Outputs, nil
		}
	}
	for bname, b := range batches {
		want := b.MustGolden(store)
		for mname, run := range modes {
			got, err := run(b)
			if err != nil {
				t.Errorf("%s, empty %s: %v", mname, bname, err)
				continue
			}
			if i := VerifyAgainstGolden(got, want); i >= 0 {
				t.Errorf("%s, empty %s: query %d = %v, want %v", mname, bname, i, got[i], want[i])
			}
		}
	}
}

// Property: merging keeps every PE's outputs within the batch size B (the
// paper's min(nm+n+m, B) with n=m=B) across random configurations, batch
// shapes, and distributions.
func TestQuickOccupancyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 25; trial++ {
		ranks := []int{4, 8, 16, 32}[rng.Intn(4)]
		capacity := []int{4, 8, 16, 32}[rng.Intn(4)]
		e := smallEngine(t, ranks, 2, capacity, 4)
		rows := uint64(256 + rng.Intn(4096))
		store := embedding.MustStore(rows, 4, uint64(trial))
		q := 1 + rng.Intn(12)
		if uint64(q) > rows {
			q = int(rows)
		}
		cfg := embedding.GeneratorConfig{
			NumQueries: capacity, QuerySize: q, Rows: rows, Seed: int64(trial),
		}
		if rng.Intn(2) == 0 {
			cfg.Dist = embedding.Zipf
			cfg.ZipfS = 1.2 + rng.Float64()
		}
		gen, err := embedding.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := gen.Batch(tensor.OpSum)
		res, err := lookup(e, store, modPlacement{ranks: ranks, bytes: 16}, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.MaxOccupancy > capacity {
			t.Fatalf("trial %d (ranks=%d cap=%d q=%d): occupancy %d exceeds batch size", trial, ranks, capacity, q, res.MaxOccupancy)
		}
	}
}
