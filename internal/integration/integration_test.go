// Package integration holds cross-module differential tests: every lookup
// engine must produce identical functional results on the same workloads,
// and the timing relationships the paper's argument depends on must hold
// across the full stack (generators -> batch compiler -> engines -> DRAM).
package integration

import (
	"math/rand"
	"testing"

	"fafnir/internal/cpu"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/memmap"
	"fafnir/internal/recnmp"
	"fafnir/internal/tensor"
	"fafnir/internal/tensordimm"
)

type fixture struct {
	mcfg   dram.Config
	layout *memmap.Layout
	store  *embedding.Store
	faf    *core.Engine
	rec    *recnmp.Engine
	tdm    *tensordimm.Engine
	base   *cpu.Engine
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	mcfg := dram.DDR4()
	layout := memmap.Uniform(mcfg, 512, 32, 4096)
	f := &fixture{
		mcfg:   mcfg,
		layout: layout,
		store:  embedding.MustStore(layout.TotalRows(), 128, 11),
	}
	var err error
	if f.faf, err = core.NewEngine(core.Default()); err != nil {
		t.Fatal(err)
	}
	if f.rec, err = recnmp.NewEngine(recnmp.Default()); err != nil {
		t.Fatal(err)
	}
	if f.tdm, err = tensordimm.NewEngine(tensordimm.Default()); err != nil {
		t.Fatal(err)
	}
	if f.base, err = cpu.NewEngine(cpu.Default()); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) batch(t *testing.T, n, q int, seed int64, dist embedding.Distribution) embedding.Batch {
	t.Helper()
	cfg := embedding.GeneratorConfig{
		NumQueries: n, QuerySize: q, Rows: f.layout.TotalRows(), Seed: seed, Dist: dist,
	}
	if dist == embedding.Zipf {
		cfg.ZipfS = 1.3
	}
	gen, err := embedding.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Batch(tensor.OpSum)
}

// TestAllEnginesAgreeFunctionally is the differential core: four independent
// engine implementations, one golden answer.
func TestAllEnginesAgreeFunctionally(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(24)
		q := 1 + rng.Intn(16)
		dist := embedding.Distribution(rng.Intn(2))
		b := f.batch(t, n, q, int64(trial), dist)
		golden := b.MustGolden(f.store)

		fres, err := f.faf.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), b, true)
		if err != nil {
			t.Fatalf("trial %d fafnir: %v", trial, err)
		}
		ires, err := f.faf.InteractiveLookup(f.store, f.layout, dram.MustSystem(f.mcfg), b)
		if err != nil {
			t.Fatalf("trial %d interactive: %v", trial, err)
		}
		rres, err := f.rec.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), b)
		if err != nil {
			t.Fatalf("trial %d recnmp: %v", trial, err)
		}
		tres, err := f.tdm.TimedLookup(f.store, dram.MustSystem(f.mcfg), b)
		if err != nil {
			t.Fatalf("trial %d tensordimm: %v", trial, err)
		}
		bres, err := f.base.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), b)
		if err != nil {
			t.Fatalf("trial %d baseline: %v", trial, err)
		}

		for name, outs := range map[string][]tensor.Vector{
			"fafnir": fres.Outputs, "interactive": ires.Outputs,
			"recnmp": rres.Outputs, "tensordimm": tres.Outputs, "baseline": bres.Outputs,
		} {
			for qi := range golden {
				if !outs[qi].Equal(golden[qi]) {
					t.Fatalf("trial %d: %s query %d disagrees with golden", trial, name, qi)
				}
			}
		}
	}
}

// TestPaperOrderingHolds asserts the headline timing relations on a
// realistic batch: Fafnir fastest, baseline slowest of the row-major
// designs, TensorDIMM slowest overall; Fafnir's dedup never reads more than
// the raw access count; channel traffic ordering matches the data-movement
// argument.
func TestPaperOrderingHolds(t *testing.T) {
	f := newFixture(t)
	b := f.batch(t, 32, 16, 5, embedding.Zipf)

	fres, err := f.faf.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), b, true)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := f.rec.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), b)
	if err != nil {
		t.Fatal(err)
	}
	tres, err := f.tdm.TimedLookup(f.store, dram.MustSystem(f.mcfg), b)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := f.base.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), b)
	if err != nil {
		t.Fatal(err)
	}

	if !(fres.TotalCycles < rres.TotalCycles && rres.TotalCycles < tres.TotalCycles) {
		t.Fatalf("latency ordering broken: fafnir %d, recnmp %d, tensordimm %d",
			fres.TotalCycles, rres.TotalCycles, tres.TotalCycles)
	}
	if fres.TotalCycles >= bres.TotalCycles {
		t.Fatalf("fafnir %d not below baseline %d", fres.TotalCycles, bres.TotalCycles)
	}
	if fres.MemoryReads > b.TotalAccesses() {
		t.Fatalf("dedup read more (%d) than raw accesses (%d)", fres.MemoryReads, b.TotalAccesses())
	}
	// Data movement: baseline ships everything, RecNMP part, Fafnir/
	// TensorDIMM only outputs.
	if !(tres.BytesToHost <= rres.BytesToHost && rres.BytesToHost <= bres.BytesToHost) {
		t.Fatalf("traffic ordering broken: tdm %d, rec %d, base %d",
			tres.BytesToHost, rres.BytesToHost, bres.BytesToHost)
	}
}

// TestSharedMemoryStateComposes runs two engines back to back on one DRAM
// system (a co-located deployment): both must stay functionally correct, and
// the second must issue on the memory's timeline after the first and find
// the rows it opened: same reads, no more cycles, at least as many row hits.
func TestSharedMemoryStateComposes(t *testing.T) {
	f := newFixture(t)
	mem := dram.MustSystem(f.mcfg)
	b := f.batch(t, 8, 8, 9, embedding.Uniform)
	golden := b.MustGolden(f.store)

	first, err := f.faf.TimedLookup(f.store, f.layout, mem, b, true)
	if err != nil {
		t.Fatal(err)
	}
	after := mem.Now()
	hits := mem.Stats().RowHits
	second, err := f.faf.TimedLookup(f.store, f.layout, mem, b, true)
	if err != nil {
		t.Fatal(err)
	}
	if after == 0 || mem.Now() <= after {
		t.Fatalf("memory clock %d after the first run, %d after the second: the runs share no timeline", after, mem.Now())
	}
	if second.TotalCycles > first.TotalCycles || mem.Stats().RowHits-hits < hits {
		t.Fatalf("second run (%d cycles, %d row hits) paid more than the first (%d cycles, %d row hits) on rows it left open",
			second.TotalCycles, mem.Stats().RowHits-hits, first.TotalCycles, hits)
	}
	for qi := range golden {
		if !second.Outputs[qi].Equal(golden[qi]) {
			t.Fatalf("query %d wrong under shared memory state", qi)
		}
	}
}

// TestDeterminismAcrossRuns re-runs the full stack and compares cycle-exact.
func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (uint64, tensor.Vector) {
		f := newFixture(t)
		b := f.batch(t, 16, 16, 3, embedding.Zipf)
		res, err := f.faf.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), b, true)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.TotalCycles), res.Outputs[0]
	}
	c1, v1 := run()
	c2, v2 := run()
	if c1 != c2 {
		t.Fatalf("nondeterministic cycles: %d vs %d", c1, c2)
	}
	if !v1.Equal(v2) {
		t.Fatal("nondeterministic outputs")
	}
}

// TestAllOpsAcrossEngines sweeps the pooling operations: every engine must
// match the golden reference for sum, min, max, and mean.
func TestAllOpsAcrossEngines(t *testing.T) {
	f := newFixture(t)
	for _, op := range []tensor.ReduceOp{tensor.OpSum, tensor.OpMin, tensor.OpMax, tensor.OpMean} {
		b := f.batch(t, 8, 8, 21, embedding.Uniform)
		b.Op = op
		golden := b.MustGolden(f.store)

		fres, err := f.faf.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), b, true)
		if err != nil {
			t.Fatalf("op %v fafnir: %v", op, err)
		}
		rres, err := f.rec.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), b)
		if err != nil {
			t.Fatalf("op %v recnmp: %v", op, err)
		}
		for qi := range golden {
			if !fres.Outputs[qi].Equal(golden[qi]) {
				t.Fatalf("op %v: fafnir query %d mismatch", op, qi)
			}
			if !rres.Outputs[qi].Equal(golden[qi]) {
				t.Fatalf("op %v: recnmp query %d mismatch", op, qi)
			}
		}
	}
}

// TestSoakLargeBatch pushes a production-sized software batch through the
// full stack (guarded by -short).
func TestSoakLargeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	f := newFixture(t)
	b := f.batch(t, 1024, 16, 31, embedding.Zipf)
	golden := b.MustGolden(f.store)
	res, err := f.faf.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), b, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.HWBatches != 32 {
		t.Fatalf("HWBatches = %d, want 32", res.HWBatches)
	}
	for qi := range golden {
		if !res.Outputs[qi].Equal(golden[qi]) {
			t.Fatalf("query %d mismatch in soak run", qi)
		}
	}
	if res.MaxOccupancy > 32 {
		t.Fatalf("PE occupancy %d exceeds the batch size 32", res.MaxOccupancy)
	}
}
