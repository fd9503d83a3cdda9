package cpu

import (
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/memmap"
	"fafnir/internal/tensor"
)

func fixture(t *testing.T) (*Engine, *embedding.Store, *memmap.Layout, *dram.System) {
	t.Helper()
	e, err := NewEngine(Default())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := dram.DDR4()
	layout := memmap.Uniform(mcfg, 512, 32, 1024)
	store := embedding.MustStore(layout.TotalRows(), 128, 1)
	return e, store, layout, dram.MustSystem(mcfg)
}

func testBatch(t *testing.T, n, q int, rows uint64, seed int64) embedding.Batch {
	t.Helper()
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: n, QuerySize: q, Rows: rows, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen.Batch(tensor.OpSum)
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.VectorHandleCycles = 0 },
		func(c *Config) { c.Cores = 0 },
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
	e, store, layout, mem := fixture(t)
	b := testBatch(t, 4, 8, layout.TotalRows(), 2)
	res, err := e.TimedLookup(store, layout, mem, b)
	if err != nil {
		t.Fatal(err)
	}
	golden := b.MustGolden(store)
	for i := range golden {
		if !res.Outputs[i].Equal(golden[i]) {
			t.Fatalf("query %d output mismatch", i)
		}
	}
}

func TestTimedLookupReadsAllVectors(t *testing.T) {
	e, store, layout, mem := fixture(t)
	b := testBatch(t, 4, 8, layout.TotalRows(), 3)
	res, err := e.TimedLookup(store, layout, mem, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryReads != 32 {
		t.Fatalf("MemoryReads = %d, want 32 (no dedup in baseline)", res.MemoryReads)
	}
	if res.BytesToHost != 32*512 {
		t.Fatalf("BytesToHost = %d", res.BytesToHost)
	}
	if mem.Stats().Counter("dram.bytes_to_host") != 32*512 {
		t.Fatal("reads not charged to the channel bus")
	}
	if res.TotalCycles <= res.MemCycles {
		t.Fatal("compute time missing from total")
	}
}

func TestChannelContentionSlowsBaseline(t *testing.T) {
	// The same batch on a single channel must be slower than on four:
	// every vector crosses the channel bus in the baseline.
	wide := dram.DDR4()
	narrow := dram.DDR4()
	narrow.Channels = 1
	narrow.DIMMsPerChannel = 16

	e, err := NewEngine(Default())
	if err != nil {
		t.Fatal(err)
	}
	lw := memmap.Uniform(wide, 512, 32, 1024)
	ln := memmap.Uniform(narrow, 512, 32, 1024)
	store := embedding.MustStore(lw.TotalRows(), 128, 1)
	b := testBatch(t, 8, 16, lw.TotalRows(), 4)

	rw, err := e.TimedLookup(store, lw, dram.MustSystem(wide), b)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := e.TimedLookup(store, ln, dram.MustSystem(narrow), b)
	if err != nil {
		t.Fatal(err)
	}
	if rn.MemCycles <= rw.MemCycles {
		t.Fatalf("narrow channel %d not slower than wide %d", rn.MemCycles, rw.MemCycles)
	}
}

func TestHandleVectors(t *testing.T) {
	e, err := NewEngine(Config{VectorHandleCycles: 10, VectorLatencyCycles: 100, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.HandleVectors(0); got != 0 {
		t.Fatalf("HandleVectors(0) = %d", got)
	}
	if got := e.HandleVectors(4); got != 110 {
		t.Fatalf("HandleVectors(4) = %d, want 110 (latency + one throughput slot)", got)
	}
	if got := e.HandleVectors(5); got != 120 {
		t.Fatalf("HandleVectors(5) = %d, want 120 (one core does two)", got)
	}
}

// The host's memory time crosses to the PE clock at the frequency of the
// memory it is handed. On HBM2 (1,800 MHz) a default engine reports what an
// engine hand-set to 1,800 MHz reported before the memory owned its clock
// (pinned); converting at DDR4's 1,200 MHz would have read 149 and 1293.
func TestDRAMToHost(t *testing.T) {
	e, err := NewEngine(Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		mcfg       dram.Config
		mem, total uint64
	}{
		{"ddr4", dram.DDR4(), 0, 0},
		{"hbm2", dram.HBM2(), 100, 1244},
	} {
		layout := memmap.Uniform(tc.mcfg, 512, 32, 1024)
		store := embedding.MustStore(layout.TotalRows(), 128, 1)
		b := testBatch(t, 32, 16, layout.TotalRows(), 47)
		mem := dram.MustSystem(tc.mcfg)
		res, err := e.TimedLookup(store, layout, mem, b)
		if err != nil {
			t.Fatal(err)
		}
		// Every read issued at cycle 0 of a fresh memory, and the last one
		// to land set Now.
		if want := mem.ToPE(mem.Now()); res.MemCycles != want {
			t.Errorf("%s: MemCycles = %d, want ToPE(Now) = %d", tc.name, res.MemCycles, want)
		}
		if tc.mem != 0 && (uint64(res.MemCycles) != tc.mem || uint64(res.TotalCycles) != tc.total) {
			t.Errorf("%s: MemCycles/TotalCycles = %d/%d, want %d/%d", tc.name, res.MemCycles, res.TotalCycles, tc.mem, tc.total)
		}
	}
}

func TestInferenceSeconds(t *testing.T) {
	cfg := Default()
	got := cfg.InferenceSeconds(1e-4)
	want := 1e-4 + cfg.FCSeconds + cfg.OtherSeconds
	if got != want {
		t.Fatalf("InferenceSeconds = %v, want %v", got, want)
	}
}
