package recnmp

import (
	"fmt"

	"fafnir/internal/cpu"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/fafnir"
	"fafnir/internal/header"
	"fafnir/internal/sim"
	"fafnir/internal/tensor"
)

// Config parameterizes the RecNMP model.
type Config struct {
	// CacheBytes is the per-rank embedding cache capacity (128 KB in the
	// paper); 0 disables caching.
	CacheBytes int
	// CacheWays is the cache associativity.
	CacheWays int
	// VectorBytes is the embedding-vector (and cache-line) size.
	VectorBytes int
	// ReduceCyclesPerStep is the DIMM-NDP cost of one partial-sum step, in
	// PE-clock cycles.
	ReduceCyclesPerStep sim.Cycle
	// CacheHitCycles is the cost of serving one read from the rank cache
	// (tag lookup plus SRAM access); the paper notes cache accesses "can
	// potentially cause a performance bottleneck".
	CacheHitCycles sim.Cycle
	// Host is the host-side model charged for forwarded raw vectors and the
	// final cross-DIMM combines.
	Host cpu.Config
}

// Default returns the published configuration: 128 KB per-rank caches (the
// paper grants RecNMP "the optimal hit rate of 50 %"), 512 B vectors.
func Default() Config {
	return Config{
		CacheBytes:          128 << 10,
		CacheWays:           4,
		VectorBytes:         512,
		ReduceCyclesPerStep: 4,
		CacheHitCycles:      4,
		Host:                cpu.Default(),
	}
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.CacheBytes < 0:
		return fmt.Errorf("recnmp: CacheBytes must be non-negative, got %d", c.CacheBytes)
	case c.CacheBytes > 0 && c.CacheWays <= 0:
		return fmt.Errorf("recnmp: CacheWays must be positive, got %d", c.CacheWays)
	case c.VectorBytes <= 0:
		return fmt.Errorf("recnmp: VectorBytes must be positive, got %d", c.VectorBytes)
	case c.ReduceCyclesPerStep == 0:
		return fmt.Errorf("recnmp: ReduceCyclesPerStep must be positive")
	}
	return c.Host.Validate()
}

// Result is the outcome of one RecNMP batch.
type Result struct {
	// Outputs is the batch's reference, Batch.Golden: RecNMP is a timing
	// model and reduces no values of its own.
	Outputs []tensor.Vector
	// MemCycles is when the last DRAM read completed (PE clock).
	MemCycles sim.Cycle
	// NDPComputeCycles is the in-DIMM partial-sum time.
	NDPComputeCycles sim.Cycle
	// HostComputeCycles is the host time combining forwarded vectors and
	// per-DIMM partials.
	HostComputeCycles sim.Cycle
	// TotalCycles is the batch latency.
	TotalCycles sim.Cycle
	// MemoryReads counts DRAM vector reads (cache hits excluded).
	MemoryReads int
	// CacheHits counts reads served by the rank caches.
	CacheHits int
	// ReducedAtNDP counts pooling operations applied inside DIMMs.
	ReducedAtNDP int
	// ForwardedRaw counts vectors sent raw to the host because no co-located
	// partner existed in their DIMM.
	ForwardedRaw int
	// BytesToHost is the channel traffic.
	BytesToHost uint64
}

// NDPFraction reports the share of pooling operations performed at NDP —
// the spatial-locality metric of Fig. 11 (about 75 % in the paper's
// single-query example, falling as tables grow).
func (r *Result) NDPFraction() float64 {
	total := r.ReducedAtNDP + r.hostCombines()
	if total == 0 {
		return 1
	}
	return float64(r.ReducedAtNDP) / float64(total)
}

func (r *Result) hostCombines() int {
	// Every forwarded vector and every extra per-DIMM partial costs one
	// host combine; approximated by ForwardedRaw (the partial combines are
	// folded into it when reporting).
	return r.ForwardedRaw
}

// Engine is the RecNMP timing model.
type Engine struct {
	cfg    Config
	caches map[int]*Cache // per global rank, lazily built
}

// NewEngine builds the engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, caches: make(map[int]*Cache)}, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// ResetCaches clears all rank caches (between independent experiments).
func (e *Engine) ResetCaches() {
	for _, c := range e.caches {
		c.Reset()
	}
}

// CacheHitRate reports the aggregate hit rate across all rank caches.
func (e *Engine) CacheHitRate() float64 {
	var hits, total uint64
	for _, c := range e.caches {
		hits += c.Hits()
		total += c.Hits() + c.Misses()
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

func (e *Engine) cacheFor(rank int) *Cache {
	if e.cfg.CacheBytes == 0 {
		return nil
	}
	c, ok := e.caches[rank]
	if !ok {
		c = NewCache(e.cfg.CacheBytes, e.cfg.VectorBytes, e.cfg.CacheWays)
		e.caches[rank] = c
	}
	return c
}

// TimedLookup runs a batch through the RecNMP mechanism:
//
//  1. every query index is read from its rank (whole vector, row-major),
//     unless the rank cache holds it;
//  2. vectors of one query that co-locate in a DIMM are reduced by that
//     DIMM's NDP unit (spatial locality); the partial crosses the channel;
//  3. vectors alone in their DIMM are forwarded raw to the host;
//  4. the host combines the per-DIMM partials and raw vectors per query.
func (e *Engine) TimedLookup(store *embedding.Store, layout fafnir.Placement, mem *dram.System, b embedding.Batch) (*Result, error) {
	mcfg := mem.Config()
	outputs, err := b.Golden(store)
	if err != nil {
		return nil, err
	}
	res := &Result{Outputs: outputs}

	dimmOf := func(rank int) int { return rank / mcfg.RanksPerDIMM }

	issue := mem.Now() // every read issues here; MemCycles is the span from it
	memDone := issue
	ndpBusy := make(map[int]sim.Cycle)   // per-DIMM NDP occupancy (units run in parallel)
	cacheBusy := make(map[int]sim.Cycle) // per-rank cache occupancy (overlaps DRAM)
	hostVectors := 0                     // raw vectors + partials the host must handle

	// Per-query DIMM grouping. The buckets are reused across queries and
	// visited in first-appearance order, which is deterministic (the map of
	// earlier versions iterated in random order) and allocation-free in
	// steady state.
	var perDimm [][]header.Index
	var dimmOrder []int
	for _, q := range b.Queries {
		dimmOrder = dimmOrder[:0]
		for _, idx := range q.Indices {
			d := dimmOf(layout.Rank(idx))
			for d >= len(perDimm) {
				perDimm = append(perDimm, nil)
			}
			if len(perDimm[d]) == 0 {
				dimmOrder = append(dimmOrder, d)
			}
			perDimm[d] = append(perDimm[d], idx)
		}
		for _, d := range dimmOrder {
			indices := perDimm[d]
			for _, idx := range indices {
				rank := layout.Rank(idx)
				if c := e.cacheFor(rank); c != nil && c.Access(idx) {
					res.CacheHits++
					cacheBusy[rank] += e.cfg.CacheHitCycles
					continue
				}
				// Partial sums stay in the DIMM (DestLocal) only when the
				// vector has a co-located partner; lone vectors stream to
				// the host.
				dest := dram.DestLocal
				if len(indices) == 1 {
					dest = dram.DestHost
				}
				done := mem.Read(issue, layout.Addr(idx), e.cfg.VectorBytes, dest)
				memDone = sim.Max(memDone, done)
				res.MemoryReads++
			}
			if len(indices) >= 2 {
				// In-DIMM reduction: len-1 pipelined partial sums, then one
				// partial vector crosses the channel. NDP units of distinct
				// DIMMs run in parallel; work within a DIMM serializes.
				steps := len(indices) - 1
				res.ReducedAtNDP += steps
				ndpBusy[d] += sim.Cycle(steps) * e.cfg.ReduceCyclesPerStep
				res.BytesToHost += uint64(e.cfg.VectorBytes)
				hostVectors++
			} else {
				res.ForwardedRaw++
				res.BytesToHost += uint64(e.cfg.VectorBytes)
				hostVectors++
			}
			perDimm[d] = perDimm[d][:0]
		}
	}

	// Rank caches serve hits in parallel with DRAM; the slower of the two
	// paths gates the gather ("the cache accesses can potentially cause a
	// performance bottleneck").
	res.MemCycles = mcfg.ToPE(memDone) - mcfg.ToPE(issue)
	for _, busy := range cacheBusy {
		if busy > res.MemCycles {
			res.MemCycles = busy
		}
	}
	for _, busy := range ndpBusy {
		if busy > res.NDPComputeCycles {
			res.NDPComputeCycles = busy
		}
	}

	// The host combines each query's partials/raw vectors.
	hostEngine, err := cpu.NewEngine(e.cfg.Host)
	if err != nil {
		return nil, err
	}
	res.HostComputeCycles = hostEngine.HandleVectors(hostVectors)

	// Partial/raw transfer beyond what DestHost reads already charged: the
	// per-DIMM partials produced at NDP must also cross the channels.
	xfer := mcfg.ToPE(mcfg.TransferCycles(int(res.BytesToHost) - res.ForwardedRaw*e.cfg.VectorBytes))

	res.TotalCycles = res.MemCycles + res.NDPComputeCycles + res.HostComputeCycles + xfer
	return res, nil
}
