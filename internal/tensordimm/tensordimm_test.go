package tensordimm

import (
	"reflect"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/tensor"
)

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
		func(c *Config) { c.VectorBytes = 0 },
		func(c *Config) { c.ReduceCyclesPerSlice = 0 },
	}
	for i, m := range bad {
		cfg := Default()
		m(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestTimedLookupBasics(t *testing.T) {
	e, err := NewEngine(Default())
	if err != nil {
		t.Fatal(err)
	}
	mem := dram.MustSystem(dram.DDR4())
	store := embedding.MustStore(32768, 128, 7)
	b := testBatch(t, 4, 8, 32768, 1)
	res, err := e.TimedLookup(store, mem, b)
	if err != nil {
		t.Fatal(err)
	}
	// Every rank reads every vector's slice: 32 slice reads per vector.
	if res.MemoryReads != 4*8*32 {
		t.Fatalf("MemoryReads = %d, want %d", res.MemoryReads, 4*8*32)
	}
	// Data movement matches Fafnir: only n*v bytes.
	if res.BytesToHost != 4*512 {
		t.Fatalf("BytesToHost = %d, want %d", res.BytesToHost, 4*512)
	}
	if !reflect.DeepEqual(res.Outputs, b.MustGolden(store)) {
		t.Fatal("outputs are not the batch's golden reference")
	}
	if res.TotalCycles <= res.MemCycles {
		t.Fatal("compute missing from total")
	}
}

func TestRowLocalityPenalty(t *testing.T) {
	// TensorDIMM's random column-major slices must activate far more rows
	// per byte read than a row-major whole-vector layout does.
	e, err := NewEngine(Default())
	if err != nil {
		t.Fatal(err)
	}
	mem := dram.MustSystem(dram.DDR4())
	store := embedding.MustStore(1<<20, 128, 7)
	b := testBatch(t, 8, 16, 1<<20, 2)
	if _, err := e.TimedLookup(store, mem, b); err != nil {
		t.Fatal(err)
	}
	activates := mem.Stats().Counter("dram.row_misses") + mem.Stats().Counter("dram.row_conflicts")
	reads := mem.Stats().Counter("dram.reads")
	if reads == 0 {
		t.Fatal("no reads recorded")
	}
	// With random vector indices over a million rows, nearly every slice
	// read opens a new row.
	if frac := float64(activates) / float64(reads); frac < 0.8 {
		t.Fatalf("activate fraction %.2f; expected row-hostile behaviour", frac)
	}
}

func TestComputeScalesWithQuerySize(t *testing.T) {
	e, err := NewEngine(Default())
	if err != nil {
		t.Fatal(err)
	}
	store := embedding.MustStore(65536, 128, 7)
	b4 := testBatch(t, 4, 4, 65536, 3)
	b16 := testBatch(t, 4, 16, 65536, 3)
	r4, err := e.TimedLookup(store, dram.MustSystem(dram.DDR4()), b4)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := e.TimedLookup(store, dram.MustSystem(dram.DDR4()), b16)
	if err != nil {
		t.Fatal(err)
	}
	// Pipelined reduction: compute grows with q (3 steps vs 15 per query).
	if r16.ComputeCycles != 5*r4.ComputeCycles {
		t.Fatalf("compute %d vs %d; want exactly 5x", r16.ComputeCycles, r4.ComputeCycles)
	}
}

func TestTooManyRanksForVector(t *testing.T) {
	cfg := Default()
	cfg.VectorBytes = 16 // 16 B over 32 ranks -> 0 B slices
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := embedding.MustStore(1024, 4, 1)
	if _, err := e.TimedLookup(store, dram.MustSystem(dram.DDR4()), testBatch(t, 1, 2, 1024, 1)); err == nil {
		t.Fatal("degenerate slice size accepted")
	}
}
