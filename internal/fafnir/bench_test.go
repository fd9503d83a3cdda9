package fafnir

import (
	"testing"

	"fafnir/internal/batch"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

func benchInputs(b *testing.B, n int) ([]Entry, []Entry) {
	b.Helper()
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: n, QuerySize: 8, Rows: 4096, Dist: embedding.Zipf, ZipfS: 1.3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	bt := gen.Batch(tensor.OpSum)
	plan := batch.Build(bt, true)
	store := embedding.MustStore(4096, 32, 1)
	var inA, inB []Entry
	for i, acc := range plan.Accesses {
		e := Entry{Value: store.MustVector(acc.Index), Header: acc.LeafHeader()}
		if i%2 == 0 {
			inA = append(inA, e)
		} else {
			inB = append(inB, e)
		}
	}
	inA, _, err = SelfMerge(tensor.OpSum, inA)
	if err != nil {
		b.Fatal(err)
	}
	inB, _, err = SelfMerge(tensor.OpSum, inB)
	if err != nil {
		b.Fatal(err)
	}
	return inA, inB
}

func BenchmarkProcessPE(b *testing.B) {
	inA, inB := benchInputs(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ProcessPE(tensor.OpSum, inA, inB); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelfMerge(b *testing.B) {
	inA, _ := benchInputs(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SelfMerge(tensor.OpSum, inA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimedLookup32(b *testing.B) {
	cfg := Default()
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	store := embedding.MustStore(1<<20, 128, 2)
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: 32, QuerySize: 16, Rows: 1 << 20, Dist: embedding.Zipf, ZipfS: 1.3, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	bt := gen.Batch(tensor.OpSum)
	pl := modBenchPlacement{ranks: 32, bytes: 512}
	lookup := func() {
		if _, err := e.TimedLookup(store, pl, dram.MustSystem(dram.DDR4()), bt, true); err != nil {
			b.Fatal(err)
		}
	}
	// One lookup first grows the engine's working state, which at
	// -benchtime 1x the one timed lookup would otherwise measure.
	lookup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup()
	}
}

// benchTreeSetup compiles one hardware batch against the paper's default
// 31-PE tree, for the runTree/leafInputs hot-path benchmarks.
func benchTreeSetup(b *testing.B, par int) (*Engine, *batch.Plan, *embedding.Store, modBenchPlacement) {
	b.Helper()
	cfg := Default()
	cfg.VectorDim = 32
	cfg.Parallelism = par
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: 32, QuerySize: 16, Rows: 1 << 16, Dist: embedding.Zipf, ZipfS: 1.3, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	plan := batch.Build(gen.Batch(tensor.OpSum), true)
	store := embedding.MustStore(1<<16, 32, 3)
	return e, plan, store, modBenchPlacement{ranks: 32, bytes: 128}
}

// BenchmarkLeafInputs measures building the per-rank leaf entries of one
// hardware batch, including the scratch lease/release around it — the real
// steady-state per-batch cost (arena-backed: ~zero allocs/op).
func BenchmarkLeafInputs(b *testing.B) {
	e, plan, store, pl := benchTreeSetup(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := e.getTreeScratch()
		if _, err := e.leafInputs(sc, store, pl, plan, nil); err != nil {
			b.Fatal(err)
		}
		e.putTreeScratch(sc)
	}
}

// BenchmarkRunTree measures one full tree reduction of a batch-32 hardware
// batch, including the per-iteration scratch lease/release (the real
// steady-state cost). The leaf inputs are staged once on a scratch that is
// deliberately never released, so they stay valid across iterations.
func BenchmarkRunTree(b *testing.B) {
	e, plan, store, pl := benchTreeSetup(b, 1)
	leafSc := e.getTreeScratch() // holds the leaf entries; never released
	leafIn, err := e.leafInputs(leafSc, store, pl, plan, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var totals PEStats
		var maxOcc int
		sc := e.getTreeScratch()
		if _, err := e.runTree(sc, tensor.OpSum, leafIn, &totals, &maxOcc, sc.perPE); err != nil {
			b.Fatal(err)
		}
		e.putTreeScratch(sc)
	}
}

// BenchmarkTimedLookupTrace compares the timed path with tracing detached
// (the production default: one nil check per batch) against a run collecting
// the full PE/DRAM event stream. The "off" case is what BENCH_*.json tracks.
func BenchmarkTimedLookupTrace(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "off"
		if traced {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Default()
			cfg.VectorDim = 32
			cfg.Parallelism = 1
			e, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
				NumQueries: 32, QuerySize: 16, Rows: 1 << 16, Dist: embedding.Zipf, ZipfS: 1.3, Seed: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			bt := gen.Batch(tensor.OpSum)
			store := embedding.MustStore(1<<16, 32, 3)
			pl := modBenchPlacement{ranks: 32, bytes: 128}
			var tr *telemetry.Trace
			if traced {
				tr = telemetry.NewTrace()
				e.AttachTracer(tr)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mem := dram.MustSystem(dram.DDR4())
				if traced {
					tr.Reset()
					mem.AttachTracer(tr)
				}
				if _, err := e.TimedLookup(store, pl, mem, bt, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type modBenchPlacement struct {
	ranks int
	bytes int
}

func (p modBenchPlacement) Rank(idx uint32) int { return int(idx) % p.ranks }
func (p modBenchPlacement) Addr(idx uint32) dram.Addr {
	return dram.Addr(uint64(idx) * uint64(p.bytes))
}
func (p modBenchPlacement) VectorBytes() int { return p.bytes }
