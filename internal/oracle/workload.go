package oracle

import (
	"fmt"
	"math/rand"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/memmap"
	"fafnir/internal/tensor"
)

// Workload is one randomly drawn system + batch configuration. Every field is
// derived deterministically from Seed, so a workload prints as its seed plus
// the shape it expanded to, and any conformance failure reproduces by
// re-running that seed.
type Workload struct {
	// Seed is the generator seed the workload was expanded from.
	Seed int64
	// Ranks is the memory-system width (8, 16, or 32 ranks).
	Ranks int
	// LeafFanIn is the Fafnir ranks-per-leaf-PE packaging (1 or 2).
	LeafFanIn int
	// BatchCapacity is the hardware batch size B.
	BatchCapacity int
	// NumQueries is the software batch size n.
	NumQueries int
	// QuerySize is the indices per query q.
	QuerySize int
	// VectorDim is the embedding dimension (the DRAM interleave granularity
	// follows it, one vector per rank slot).
	VectorDim int
	// ZipfS is the index-popularity skew; 0 draws uniformly.
	ZipfS float64
	// Op is the pooling operation.
	Op tensor.ReduceOp
	// EmptyEvery, when positive, empties every EmptyEvery-th query of the
	// drawn batch (starting with the first): a query with no indices is a
	// legal host input that every engine answers with a zero vector.
	EmptyEvery int
}

// totalRows is the index space every workload draws from: 4 tables x 1024
// rows. Small enough that Zipf batches share indices heavily (exercising
// dedup, merging, and duplicate headers), large enough that uniform batches
// mostly do not.
const (
	workloadTables  = 4
	workloadRowsPer = 1024
)

// GenWorkload expands a seed into a workload. Distinct seeds cover the
// configuration space: every rank width and fan-in, hardware batches both
// smaller and larger than the software batch, every pooling op, and both
// uniform and skewed index popularity.
func GenWorkload(seed int64) Workload {
	r := rand.New(rand.NewSource(seed ^ 0x0fa17e5c0de))
	w := Workload{
		Seed:          seed,
		Ranks:         []int{8, 16, 32}[r.Intn(3)],
		LeafFanIn:     1 + r.Intn(2),
		BatchCapacity: []int{4, 8, 16, 32}[r.Intn(4)],
		NumQueries:    1 + r.Intn(40),
		QuerySize:     1 + r.Intn(16),
		VectorDim:     []int{16, 32, 128}[r.Intn(3)],
	}
	if r.Intn(2) == 0 {
		w.ZipfS = 1.1 + 0.9*r.Float64()
	}
	switch r.Intn(5) {
	case 0:
		w.Op = tensor.OpMin
	case 1:
		w.Op = tensor.OpMax
	case 2:
		w.Op = tensor.OpMean
	default:
		w.Op = tensor.OpSum // weighted toward the paper's default pooling
	}
	// Drawn last, so every other field of a seed is what it was before the
	// empty-query workloads existed.
	if r.Intn(8) == 0 {
		w.EmptyEvery = 2 + r.Intn(3)
	}
	return w
}

// String renders the workload for failure messages: the seed first (the
// reproduction handle), then the expanded shape.
func (w Workload) String() string {
	dist := "uniform"
	if w.ZipfS > 0 {
		dist = fmt.Sprintf("zipf(%.2f)", w.ZipfS)
	}
	if w.EmptyEvery > 0 {
		dist += fmt.Sprintf(" empty-every=%d", w.EmptyEvery)
	}
	return fmt.Sprintf("seed=%d [ranks=%d fanin=%d B=%d n=%d q=%d dim=%d %s %s]",
		w.Seed, w.Ranks, w.LeafFanIn, w.BatchCapacity, w.NumQueries, w.QuerySize,
		w.VectorDim, dist, w.Op)
}

// Env is a built workload: the memory geometry, address layout, synthetic
// store, and drawn batch every engine replays.
type Env struct {
	W      Workload
	Mem    dram.Config
	Layout *memmap.Layout
	Store  *embedding.Store
	Batch  embedding.Batch
}

// Build expands the workload into a runnable environment.
func (w Workload) Build() (*Env, error) {
	mcfg, err := dram.DDR4Ranks(w.Ranks)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", w, err)
	}
	mcfg.InterleaveBytes = 4 * w.VectorDim
	if err := mcfg.Validate(); err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", w, err)
	}

	layout := memmap.Uniform(mcfg, 4*w.VectorDim, workloadTables, workloadRowsPer)
	store, err := embedding.NewStore(layout.TotalRows(), w.VectorDim, uint64(w.Seed)+1)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", w, err)
	}

	gcfg := embedding.GeneratorConfig{
		NumQueries: w.NumQueries,
		QuerySize:  w.QuerySize,
		Rows:       layout.TotalRows(),
		Seed:       w.Seed*2_000_003 + 17,
	}
	if w.ZipfS > 0 {
		gcfg.Dist = embedding.Zipf
		gcfg.ZipfS = w.ZipfS
	}
	gen, err := embedding.NewGenerator(gcfg)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", w, err)
	}
	b := gen.Batch(w.Op)
	for i := 0; w.EmptyEvery > 0 && i < len(b.Queries); i += w.EmptyEvery {
		b.Queries[i] = embedding.Query{}
	}
	return &Env{W: w, Mem: mcfg, Layout: layout, Store: store, Batch: b}, nil
}

// NewMem builds a fresh memory system for one engine run, so runs never share
// bank or bus state.
func (e *Env) NewMem() *dram.System { return dram.MustSystem(e.Mem) }

// FafnirConfig is the tree configuration matching the workload. parallelism
// is the worker-pool width (the harness sweeps it; 1 is the legacy serial
// path).
func (e *Env) FafnirConfig(parallelism int) core.Config {
	cfg := core.Default()
	cfg.NumRanks = e.W.Ranks
	cfg.LeafFanIn = e.W.LeafFanIn
	cfg.BatchCapacity = e.W.BatchCapacity
	cfg.VectorDim = e.W.VectorDim
	cfg.Op = e.W.Op
	cfg.Parallelism = parallelism
	return cfg
}
