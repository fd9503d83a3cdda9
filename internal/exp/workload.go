package exp

import (
	"fmt"

	"fafnir/internal/batch"
	"fafnir/internal/cpu"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/fafnir"
	"fafnir/internal/memmap"
	"fafnir/internal/recnmp"
	"fafnir/internal/sim"
	"fafnir/internal/tensor"
	"fafnir/internal/tensordimm"
)

// Workload fixes the embedding-lookup configuration shared by the
// experiments: the paper's 32-rank DDR4 system, 32 embedding tables of
// 512 B vectors, q=16 indices per query, and a Zipf-skewed index popularity
// calibrated so batch-level index sharing matches the Fig. 3/15 regime.
type Workload struct {
	Mem     dram.Config
	RowsPer int
	Q       int
	ZipfS   float64
	Seed    int64
}

// PaperWorkload returns the default fixture.
func PaperWorkload() Workload {
	return Workload{
		Mem:     dram.DDR4(),
		RowsPer: 1 << 17, // 128k rows per table, 32 tables -> 4M vectors (2 GB)
		Q:       16,
		ZipfS:   1.3,
		Seed:    1,
	}
}

// Layout builds the address layout of the workload.
func (w Workload) Layout() *memmap.Layout {
	return memmap.Uniform(w.Mem, 512, 32, w.RowsPer)
}

// Store builds the synthetic table contents.
func (w Workload) Store(layout *memmap.Layout) *embedding.Store {
	return embedding.MustStore(layout.TotalRows(), 128, uint64(w.Seed))
}

// Batch draws a deterministic batch of n queries.
func (w Workload) Batch(n int, seed int64) (embedding.Batch, error) {
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: n,
		QuerySize:  w.Q,
		Rows:       uint64(32 * w.RowsPer),
		Dist:       embedding.Zipf,
		ZipfS:      w.ZipfS,
		Seed:       w.Seed*1000 + seed,
	})
	if err != nil {
		return embedding.Batch{}, err
	}
	return gen.Batch(tensor.OpSum), nil
}

// engines bundles one instance of every lookup engine over a shared memory
// geometry.
type engines struct {
	w      Workload
	layout *memmap.Layout
	store  *embedding.Store
	faf    *fafnir.Engine
	rec    *recnmp.Engine
	tdm    *tensordimm.Engine
	base   *cpu.Engine
}

func newEngines(w Workload, batchCap int) (*engines, error) {
	layout := w.Layout()
	store := w.Store(layout)

	fcfg := fafnir.Default()
	fcfg.NumRanks = w.Mem.TotalRanks()
	fcfg.BatchCapacity = batchCap
	faf, err := fafnir.NewEngine(fcfg)
	if err != nil {
		return nil, fmt.Errorf("exp: fafnir engine: %w", err)
	}
	rec, err := recnmp.NewEngine(recnmp.Default())
	if err != nil {
		return nil, fmt.Errorf("exp: recnmp engine: %w", err)
	}
	tdm, err := tensordimm.NewEngine(tensordimm.Default())
	if err != nil {
		return nil, fmt.Errorf("exp: tensordimm engine: %w", err)
	}
	base, err := cpu.NewEngine(cpu.Default())
	if err != nil {
		return nil, fmt.Errorf("exp: cpu engine: %w", err)
	}
	return &engines{w: w, layout: layout, store: store, faf: faf, rec: rec, tdm: tdm, base: base}, nil
}

func (e *engines) mem() *dram.System { return dram.MustSystem(e.w.Mem) }

// micros converts PE cycles to microseconds.
func micros(c sim.Cycle) float64 { return sim.Seconds(c) * 1e6 }

// dedupStats compiles a batch both ways and reports access counts.
func dedupStats(b embedding.Batch) (unique, total int, savings float64) {
	p := batch.Build(b, true)
	return p.NumAccesses(), p.TotalAccesses(), p.Savings()
}
