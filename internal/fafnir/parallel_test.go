package fafnir

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/memmap"
	"fafnir/internal/tensor"
)

// parallelismLevels are the Parallelism settings every determinism test
// sweeps: fully inline, two pass workers, and one per CPU.
func parallelismLevels() []int {
	levels := []int{1, 2, runtime.NumCPU()}
	if runtime.NumCPU() == 2 {
		levels = levels[:2]
	}
	return levels
}

func detWorkload(t *testing.T, queries int) (*embedding.Store, embedding.Batch) {
	t.Helper()
	store := embedding.MustStore(1<<14, 16, 7)
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: queries, QuerySize: 12, Rows: 1 << 14,
		Dist: embedding.Zipf, ZipfS: 1.3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return store, gen.Batch(tensor.OpSum)
}

func parEngine(t *testing.T, par int) *Engine {
	t.Helper()
	return ranksEngine(t, Default().NumRanks, par)
}

func ranksEngine(t *testing.T, ranks, par int) *Engine {
	t.Helper()
	cfg := Default()
	cfg.NumRanks = ranks
	cfg.VectorDim = 16
	cfg.Parallelism = par
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// skewPlacement concentrates three of every four indices on rank 0 — the hot
// leaf — and spreads the rest over the remaining ranks. On skewRanks ranks at
// fan-in 2 the tree has 5 leaves, so every pairing level carries one node up
// unpaired and the last leaf rides a spine all the way to the root: hardware
// batches of very unequal cost for the pass workers to overlap.
type skewPlacement struct {
	ranks int
	bytes int
}

const skewRanks = 10

func (p skewPlacement) Rank(idx header.Index) int {
	if idx%4 != 0 {
		return 0
	}
	return int(idx/4) % p.ranks
}
func (p skewPlacement) Addr(idx header.Index) dram.Addr {
	return dram.Addr(uint64(idx) * uint64(p.bytes))
}
func (p skewPlacement) VectorBytes() int { return p.bytes }

// TestLookupDeterministicAcrossParallelism runs the same seeded workloads at
// Parallelism 1, 2, and NumCPU and requires bit-identical functional results:
// outputs, per-PE action totals, peak occupancy, and read counts. Every batch
// spans several hardware batches so the ahead-of-time passes are exercised,
// on the balanced default tree and on the skewed hot-leaf one.
func TestLookupDeterministicAcrossParallelism(t *testing.T) {
	store, b := detWorkload(t, 100) // 4 hardware batches at capacity 32
	for _, in := range []struct {
		name  string
		ranks int
		pl    Placement
	}{
		{"uniform", 32, modPlacement{ranks: 32, bytes: 64}},
		{"skew", skewRanks, skewPlacement{ranks: skewRanks, bytes: 64}},
	} {
		var want *TimedResult
		for _, par := range parallelismLevels() {
			res, err := lookup(ranksEngine(t, in.ranks, par), store, in.pl, b)
			if err != nil {
				t.Fatalf("%s Parallelism=%d: %v", in.name, par, err)
			}
			if want == nil {
				want = res
				continue
			}
			if !reflect.DeepEqual(res.Outputs, want.Outputs) {
				t.Fatalf("%s Parallelism=%d: outputs differ from serial run", in.name, par)
			}
			if res.PETotals != want.PETotals {
				t.Fatalf("%s Parallelism=%d: PETotals %+v != serial %+v", in.name, par, res.PETotals, want.PETotals)
			}
			if res.MaxOccupancy != want.MaxOccupancy {
				t.Fatalf("%s Parallelism=%d: MaxOccupancy %d != serial %d", in.name, par, res.MaxOccupancy, want.MaxOccupancy)
			}
			if res.MemoryReads != want.MemoryReads || res.HWBatches != want.HWBatches {
				t.Fatalf("%s Parallelism=%d: reads/batches (%d,%d) != serial (%d,%d)",
					in.name, par, res.MemoryReads, res.HWBatches, want.MemoryReads, want.HWBatches)
			}
		}
	}
}

// TestTimedLookupDeterministicAcrossParallelism requires the timing pass to
// be cycle-identical at every Parallelism setting: hardware batches computed
// ahead must charge the DRAM model and the tree walk exactly as the serial
// engine, with and without dedup, on the skewed hot-leaf tree, and on the
// degraded path (a dark rank remaps reads to replicas, which keeps the passes
// inline at every setting).
func TestTimedLookupDeterministicAcrossParallelism(t *testing.T) {
	store, b := detWorkload(t, 96) // 3 hardware batches
	uniform := modPlacement{ranks: 32, bytes: 64}

	mcfg := dram.DDR4()
	layout := memmap.Uniform(mcfg, 512, 4, 256)
	fstore := embedding.MustStore(layout.TotalRows(), 16, 7)
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: 48, QuerySize: 6, Rows: layout.TotalRows(), Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	fb := gen.Batch(tensor.OpSum) // 2 hardware batches
	dark := fault.Plan{RankFailures: []fault.RankFailure{{Rank: layout.Rank(fb.Queries[0].Indices[0]), At: 0}}}

	for _, in := range []struct {
		name  string
		ranks int
		store *embedding.Store
		pl    Placement
		b     embedding.Batch
		dedup bool
		plan  fault.Plan
	}{
		{"dedup", 32, store, uniform, b, true, fault.Plan{}},
		{"no-dedup", 32, store, uniform, b, false, fault.Plan{}},
		{"skew", skewRanks, store, skewPlacement{ranks: skewRanks, bytes: 64}, b, true, fault.Plan{}},
		{"faulted", 32, fstore, layout, fb, true, dark},
	} {
		var want *TimedResult
		for _, par := range parallelismLevels() {
			var inj *fault.Injector
			if !in.plan.Empty() {
				if inj, err = fault.NewInjector(in.plan, mcfg.TotalRanks()); err != nil {
					t.Fatal(err)
				}
			}
			res, err := ranksEngine(t, in.ranks, par).TimedLookup(in.store, in.pl, withFaults(dram.MustSystem(mcfg), inj), in.b, in.dedup)
			if err != nil {
				t.Fatalf("%s Parallelism=%d: %v", in.name, par, err)
			}
			if want == nil {
				want = res
				if !in.plan.Empty() && want.Degraded.RemappedReads == 0 {
					t.Fatalf("%s: the dark rank remapped no read", in.name)
				}
				continue
			}
			if !reflect.DeepEqual(res.Outputs, want.Outputs) {
				t.Fatalf("%s Parallelism=%d: outputs differ from serial run", in.name, par)
			}
			if res.TotalCycles != want.TotalCycles || res.MemCycles != want.MemCycles ||
				res.ComputeCycles != want.ComputeCycles || res.TransferCycles != want.TransferCycles {
				t.Fatalf("%s Parallelism=%d: cycles (%d,%d,%d,%d) != serial (%d,%d,%d,%d)",
					in.name, par,
					res.TotalCycles, res.MemCycles, res.ComputeCycles, res.TransferCycles,
					want.TotalCycles, want.MemCycles, want.ComputeCycles, want.TransferCycles)
			}
			// Everything else — PE stats, traffic, stages, degraded report.
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s Parallelism=%d: result diverges from serial run:\n%+v\nvs\n%+v", in.name, par, res, want)
			}
		}
	}
}

// TestParallelLookupMatchesGolden cross-checks the parallel engine against
// the reference reduction, not just against the serial engine.
func TestParallelLookupMatchesGolden(t *testing.T) {
	store, b := detWorkload(t, 80)
	pl := modPlacement{ranks: 32, bytes: 64}
	e := parEngine(t, runtime.NumCPU())
	res, err := lookup(e, store, pl, b)
	if err != nil {
		t.Fatal(err)
	}
	golden := b.MustGolden(store)
	if i := VerifyAgainstGolden(res.Outputs, golden); i >= 0 {
		t.Fatalf("query %d mismatches golden", i)
	}
}

// TestParallelAllOps sweeps every pooling operation through the parallel
// tree; sorting-sensitive ops (min/max) catch any join-order divergence.
func TestParallelAllOps(t *testing.T) {
	store := embedding.MustStore(4096, 8, 3)
	for _, op := range []tensor.ReduceOp{tensor.OpSum, tensor.OpMin, tensor.OpMax, tensor.OpMean} {
		gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
			NumQueries: 48, QuerySize: 6, Rows: 4096, Seed: int64(op) + 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		b := gen.Batch(op)
		var want []tensor.Vector
		for _, par := range parallelismLevels() {
			cfg := Default()
			cfg.VectorDim = 8
			cfg.Parallelism = par
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := lookup(e, store, modPlacement{ranks: 32, bytes: 32}, b)
			if err != nil {
				t.Fatalf("op=%v par=%d: %v", op, par, err)
			}
			if want == nil {
				want = res.Outputs
				continue
			}
			if !reflect.DeepEqual(res.Outputs, want) {
				t.Fatalf("op=%v par=%d: outputs differ", op, par)
			}
		}
	}
}

// negRankPlacement maps every seventh index to rank -1.
type negRankPlacement struct{ modPlacement }

func (p negRankPlacement) Rank(idx header.Index) int {
	if idx%7 == 0 {
		return -1
	}
	return p.modPlacement.Rank(idx)
}

// TestParallelErrorDeterministic forces an evaluation error (an index mapped
// beyond the tree's ranks, above or below) and requires the same structured
// error from every lookup mode at every Parallelism setting.
func TestParallelErrorDeterministic(t *testing.T) {
	store, b := detWorkload(t, 64)
	for _, in := range []struct {
		name string
		bad  Placement
	}{
		{"beyond", modPlacement{ranks: 64, bytes: 64}}, // ranks beyond the 32-rank tree
		{"negative", negRankPlacement{modPlacement{ranks: 32, bytes: 64}}},
	} {
		var want string
		for _, par := range parallelismLevels() {
			e := parEngine(t, par)
			_, timedErr := e.TimedLookup(store, in.bad, dram.MustSystem(dram.DDR4()), b, true)
			_, interErr := e.InteractiveLookup(store, in.bad, dram.MustSystem(dram.DDR4()), b)
			for mode, err := range map[string]error{"TimedLookup": timedErr, "InteractiveLookup": interErr} {
				if err == nil {
					t.Fatalf("%s Parallelism=%d: %s accepted an out-of-range rank", in.name, par, mode)
				}
				// Interactive mode walks queries, not deduplicated accesses,
				// so it may trip on a different index: compare the shape.
				got := err.Error()
				if mode == "InteractiveLookup" {
					if !strings.Contains(got, "beyond the tree's 32 ranks") {
						t.Fatalf("%s Parallelism=%d: InteractiveLookup error %q is not the rank range check", in.name, par, got)
					}
					continue
				}
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s Parallelism=%d: %s error %q != %q", in.name, par, mode, got, want)
				}
			}
		}
	}
}

// batchedWorkload builds hwBatches full hardware batches (capacity 32) whose
// indices name their batch: hardware batch k draws only from
// [k*batchStride, (k+1)*batchStride), so a placement can tell which pass is
// asking.
const batchStride = 256

func batchedWorkload(hwBatches int) (*embedding.Store, embedding.Batch) {
	b := embedding.Batch{Op: tensor.OpSum}
	for q := 0; q < 32*hwBatches; q++ {
		base := header.Index(q/32*batchStride + q%32*4)
		b.Queries = append(b.Queries, embedding.Query{Indices: header.NewIndexSet(base, base+1, base+2, base+130)})
	}
	return embedding.MustStore(uint64(hwBatches*batchStride+batchStride), 16, 7), b
}

// probePlacement watches the engine through the Placement interface. Rank is
// called by whichever goroutine stages a pass's leaf inputs; Addr only by the
// timed loop on the caller's goroutine.
type probePlacement struct {
	modPlacement
	failBatch0 bool

	returned atomic.Bool  // set by the test once TimedLookup has returned
	late     atomic.Int64 // Rank calls that arrived after that
	started  atomic.Int64 // highest hardware batch whose pass has begun staging
	peak     atomic.Int64 // most passes live at once, sampled by the timed loop
}

// raise lifts a to at least v.
func raise(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

func (p *probePlacement) Rank(idx header.Index) int {
	if p.returned.Load() {
		p.late.Add(1)
	}
	k := int64(idx / batchStride)
	raise(&p.started, k)
	if p.failBatch0 && k == 0 {
		return 1 << 20
	}
	return p.modPlacement.Rank(idx)
}

// Addr runs while the timed loop reads hardware batch k: every earlier pass
// has been released, so the passes holding a scratch lease right now are k
// and whatever the workers have begun beyond it.
func (p *probePlacement) Addr(idx header.Index) dram.Addr {
	raise(&p.peak, p.started.Load()-int64(idx/batchStride)+1)
	return p.modPlacement.Addr(idx)
}

// TestTimedLookupLeavesNothingInFlight fails hardware batch 0 of 8 while
// later passes are being computed ahead, and requires the call to have
// stopped all of them by the time it returns: no goroutine of the lookup may
// touch the caller's placement (or store) afterwards.
func TestTimedLookupLeavesNothingInFlight(t *testing.T) {
	store, b := batchedWorkload(8)
	pl := &probePlacement{modPlacement: modPlacement{ranks: 32, bytes: 64}, failBatch0: true}
	_, err := parEngine(t, 2).TimedLookup(store, pl, dram.MustSystem(dram.DDR4()), b, true)
	pl.returned.Store(true)
	if err == nil || !strings.Contains(err.Error(), "beyond the tree's 32 ranks") {
		t.Fatalf("TimedLookup = %v, want the rank range error of hardware batch 0", err)
	}
	time.Sleep(20 * time.Millisecond) // let an abandoned pass, if any, reach its next Rank call
	if n := pl.late.Load(); n > 0 {
		t.Fatalf("%d Rank calls arrived after TimedLookup returned: passes were left in flight", n)
	}
}

// TestTimedLookupBoundsLookAhead runs 64 hardware batches and requires the
// passes live at any moment — the one being timed plus those computed ahead —
// to stay within Parallelism+1, so a long lookup holds a bounded number of
// scratch leases however many hardware batches it spans.
func TestTimedLookupBoundsLookAhead(t *testing.T) {
	store, b := batchedWorkload(64)
	const par = 2
	pl := &probePlacement{modPlacement: modPlacement{ranks: 32, bytes: 64}}
	res, err := parEngine(t, par).TimedLookup(store, pl, dram.MustSystem(dram.DDR4()), b, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.HWBatches != 64 {
		t.Fatalf("HWBatches = %d, want 64", res.HWBatches)
	}
	if peak := pl.peak.Load(); peak > par+1 {
		t.Fatalf("%d passes live at once, want at most Parallelism+1 = %d", peak, par+1)
	}
}

// TestParallelismValidation covers the new knob's configuration contract.
func TestParallelismValidation(t *testing.T) {
	cfg := Default()
	cfg.Parallelism = -1
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("negative Parallelism accepted")
	}
	cfg.Parallelism = 0
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("parallelism() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestHWBatchStarts pins the batch-splitting helper, including the empty
// batch (no hardware batches at all).
func TestHWBatchStarts(t *testing.T) {
	e := parEngine(t, 1)
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{0, []int{}},
		{1, []int{0}},
		{32, []int{0}},
		{33, []int{0, 32}},
		{100, []int{0, 32, 64, 96}},
	} {
		got := e.hwBatchStarts([]int{}, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("hwBatchStarts(%d) = %v, want %v", tc.n, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("hwBatchStarts(%d) = %v, want %v", tc.n, got, tc.want)
			}
		}
	}
}

// TestEngineSharedAcrossGoroutines runs lookups of two shapes on one engine
// from several goroutines at once. A lookup takes the engine's lookup
// scratch for its span and a concurrent one builds its own, and the tree
// scratches come off one process-wide free list, so every result must equal
// the serial one.
func TestEngineSharedAcrossGoroutines(t *testing.T) {
	store, big := detWorkload(t, 96) // 3 hardware batches
	small := embedding.Batch{Op: big.Op, Queries: big.Queries[:5]}
	pl := modPlacement{ranks: 32, bytes: 64}
	for _, par := range parallelismLevels() {
		e := ranksEngine(t, 32, par)
		var want [2]*TimedResult
		for i, b := range []embedding.Batch{big, small} {
			res, err := e.TimedLookup(store, pl, dram.MustSystem(dram.DDR4()), b, true)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 6; r++ {
					i := (g + r) % 2
					res, err := e.TimedLookup(store, pl, dram.MustSystem(dram.DDR4()), []embedding.Batch{big, small}[i], true)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(res, want[i]) {
						t.Errorf("Parallelism=%d, goroutine %d: lookup %d diverges from the serial result", par, g, r)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
