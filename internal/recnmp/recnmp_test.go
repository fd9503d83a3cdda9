package recnmp

import (
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/memmap"
	"fafnir/internal/tensor"
)

func fixture(t *testing.T, cfg Config) (*Engine, *embedding.Store, *memmap.Layout, *dram.System) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := dram.DDR4()
	layout := memmap.Uniform(mcfg, 512, 32, 4096)
	store := embedding.MustStore(layout.TotalRows(), 128, 5)
	return e, store, layout, dram.MustSystem(mcfg)
}

func testBatch(t *testing.T, n, q int, rows uint64, seed int64, dist embedding.Distribution) embedding.Batch {
	t.Helper()
	cfg := embedding.GeneratorConfig{NumQueries: n, QuerySize: q, Rows: rows, Seed: seed, Dist: dist}
	if dist == embedding.Zipf {
		cfg.ZipfS = 1.3
	}
	gen, err := embedding.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Batch(tensor.OpSum)
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(4*64, 64, 2) // 4 lines, 2-way
	if c.Lines() != 4 {
		t.Fatalf("Lines = %d", c.Lines())
	}
	if c.Access(1) {
		t.Fatal("cold access hit")
	}
	if !c.Access(1) {
		t.Fatal("warm access missed")
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", c.HitRate())
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 set, 2 ways: accessing three distinct tags evicts the LRU one.
	c := NewCache(2*64, 64, 2)
	c.Access(0) // miss, insert
	c.Access(2) // miss, insert (same set: 1 set only)
	c.Access(0) // hit -> 2 becomes LRU
	c.Access(4) // miss, evicts 2
	if !c.Access(0) {
		t.Fatal("0 should still be cached")
	}
	if c.Access(2) {
		t.Fatal("2 should have been evicted")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(64, 64, 1)
	c.Access(1)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("stats survived reset")
	}
	if c.Access(1) {
		t.Fatal("contents survived reset")
	}
}

func TestCachePanicsOnBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache(0, 64, 1) },
		func() { NewCache(64, 0, 1) },
		func() { NewCache(64, 64, 0) },
		func() { NewCache(32, 64, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry accepted")
				}
			}()
			f()
		}()
	}
}

func TestCacheZeroHitRateBeforeUse(t *testing.T) {
	c := NewCache(64, 64, 1)
	if c.HitRate() != 0 {
		t.Fatal("hit rate before use")
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.CacheBytes = -1 },
		func(c *Config) { c.CacheBytes = 64; c.CacheWays = 0 },
		func(c *Config) { c.VectorBytes = 0 },
		func(c *Config) { c.ReduceCyclesPerStep = 0 },
		func(c *Config) { c.Host.Cores = 0 },
	}
	for i, m := range bad {
		cfg := Default()
		m(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestTimedLookupGoldenOutputs(t *testing.T) {
	e, store, layout, mem := fixture(t, Default())
	b := testBatch(t, 8, 8, layout.TotalRows(), 1, embedding.Uniform)
	res, err := e.TimedLookup(store, layout, mem, b)
	if err != nil {
		t.Fatal(err)
	}
	golden := b.MustGolden(store)
	for i := range golden {
		if !res.Outputs[i].Equal(golden[i]) {
			t.Fatalf("query %d mismatch", i)
		}
	}
	if res.TotalCycles == 0 || res.MemCycles == 0 {
		t.Fatalf("zero timing %+v", res)
	}
}

func TestSpatialLocalitySplit(t *testing.T) {
	// Hand-placed query: indices 0 and 32 share rank 0 (same DIMM);
	// index 5 is alone on rank 5. Two NDP-reducible vectors, one raw
	// forward.
	e, store, layout, mem := fixture(t, Default())
	b := embedding.Batch{
		Queries: []embedding.Query{{Indices: header.NewIndexSet(0, 32, 5)}},
		Op:      tensor.OpSum,
	}
	res, err := e.TimedLookup(store, layout, mem, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReducedAtNDP != 1 {
		t.Fatalf("ReducedAtNDP = %d, want 1", res.ReducedAtNDP)
	}
	if res.ForwardedRaw != 1 {
		t.Fatalf("ForwardedRaw = %d, want 1", res.ForwardedRaw)
	}
	// Channel traffic: one partial + one raw vector.
	if res.BytesToHost != 2*512 {
		t.Fatalf("BytesToHost = %d", res.BytesToHost)
	}
}

func TestScatteredQueriesForwardEverything(t *testing.T) {
	// Every index on a different DIMM: nothing reduces at NDP — the
	// spatial-locality failure mode of Section III-C.
	e, store, layout, mem := fixture(t, Default())
	// DIMMs hold rank pairs (0,1), (2,3), ...; pick one index per DIMM.
	b := embedding.Batch{
		Queries: []embedding.Query{{Indices: header.NewIndexSet(0, 2, 4, 6)}},
		Op:      tensor.OpSum,
	}
	res, err := e.TimedLookup(store, layout, mem, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReducedAtNDP != 0 {
		t.Fatalf("ReducedAtNDP = %d, want 0", res.ReducedAtNDP)
	}
	if res.ForwardedRaw != 4 {
		t.Fatalf("ForwardedRaw = %d, want 4", res.ForwardedRaw)
	}
	if res.NDPFraction() != 0 {
		t.Fatalf("NDPFraction = %v", res.NDPFraction())
	}
}

func TestCacheAbsorbsRepeats(t *testing.T) {
	e, store, layout, mem := fixture(t, Default())
	// The same query twice: second pass hits the rank caches.
	q := embedding.Query{Indices: header.NewIndexSet(0, 1, 2, 3)}
	b := embedding.Batch{Queries: []embedding.Query{q, q}, Op: tensor.OpSum}
	res, err := e.TimedLookup(store, layout, mem, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 4 {
		t.Fatalf("CacheHits = %d, want 4", res.CacheHits)
	}
	if res.MemoryReads != 4 {
		t.Fatalf("MemoryReads = %d, want 4", res.MemoryReads)
	}
	if e.CacheHitRate() != 0.5 {
		t.Fatalf("CacheHitRate = %v", e.CacheHitRate())
	}
	e.ResetCaches()
	if e.CacheHitRate() != 0 {
		t.Fatal("caches survived reset")
	}
}

func TestNoCacheConfiguration(t *testing.T) {
	cfg := Default()
	cfg.CacheBytes = 0
	e, store, layout, mem := fixture(t, cfg)
	q := embedding.Query{Indices: header.NewIndexSet(0, 1)}
	b := embedding.Batch{Queries: []embedding.Query{q, q}, Op: tensor.OpSum}
	res, err := e.TimedLookup(store, layout, mem, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 {
		t.Fatalf("CacheHits = %d without a cache", res.CacheHits)
	}
	if res.MemoryReads != 4 {
		t.Fatalf("MemoryReads = %d, want 4", res.MemoryReads)
	}
}

func TestMoreRanksReduceLocality(t *testing.T) {
	// The birthday-paradox argument: with queries spread over more DIMMs,
	// the NDP-reducible fraction falls.
	fractions := map[int]float64{}
	for _, dimms := range []int{1, 4} {
		mcfg := dram.DDR4()
		mcfg.Channels = 1
		mcfg.DIMMsPerChannel = dimms
		e, err := NewEngine(Default())
		if err != nil {
			t.Fatal(err)
		}
		layout := memmap.Uniform(mcfg, 512, 4, 4096)
		store := embedding.MustStore(layout.TotalRows(), 128, 3)
		mem := dram.MustSystem(mcfg)
		b := testBatch(t, 16, 8, layout.TotalRows(), 9, embedding.Uniform)
		res, err := e.TimedLookup(store, layout, mem, b)
		if err != nil {
			t.Fatal(err)
		}
		fractions[dimms] = res.NDPFraction()
	}
	if fractions[4] >= fractions[1] {
		t.Fatalf("NDP fraction did not fall with more DIMMs: %v", fractions)
	}
}

func TestCacheHitsCostCycles(t *testing.T) {
	e, store, layout, mem := fixture(t, Default())
	q := embedding.Query{Indices: header.NewIndexSet(0, 1, 2, 3)}
	b := embedding.Batch{Queries: []embedding.Query{q, q}, Op: tensor.OpSum}
	res, err := e.TimedLookup(store, layout, mem, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Fatal("no cache hits to charge")
	}
	// Hits cost cycles on the rank caches; with only four hits the cost
	// hides under the DRAM time, but a hit-storm on one rank must gate the
	// gather.
	cfg := Default()
	cfg.CacheHitCycles = 1000 // exaggerate to make the gate visible
	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.TimedLookup(store, layout, dram.MustSystem(dram.DDR4()), b)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MemCycles <= res.MemCycles {
		t.Fatalf("expensive cache hits did not gate the gather: %d vs %d",
			res2.MemCycles, res.MemCycles)
	}
}
