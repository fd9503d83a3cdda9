// Package router is the fleet front-end for sharded serving: it owns N
// simulated Fafnir systems (one reduction tree + memory node each), scatters
// every batch's indices to the shards that store them, reduces the per-shard
// partial pools through an in-network switch tree (internal/rnet), and wraps
// each sub-lookup in a robustness envelope so the fleet survives the faults
// internal/fault knows how to inject. Fleet and Federation are one recursive
// router tier (tier.go) over different leaves: a fleet's leaves are shards,
// a federation's are fleets. Lookup, the settle, the loss path, the row
// hand-off and the capability accessors are the tier's, defined once; the
// names a tier's trace events and metric families carry are its level's
// data.
//
// The envelope has four layers:
//
//   - per-shard health: a three-state breaker (healthy → suspect → dark)
//     driven by structured sub-lookup errors (ErrRankFailed,
//     ErrRetriesExhausted, ErrShardDown), with seeded-deterministic capped
//     backoff before a dark shard is probed again — all charged on the
//     router's simulated fleet clock, never wall time;
//   - probe lookups: a dark shard whose reopen backoff has elapsed receives
//     a one-query canary lookup before the batch scatters; success reopens
//     the shard, failure doubles the backoff;
//   - failover: a failed sub-lookup retries against the shard's replica
//     peer (each shard stores a full copy of one peer's rows, extending
//     memmap's diagonal rank replicas to shard granularity);
//   - graceful degradation: when a shard and its replica are both
//     unreachable, the batch returns the partial reduction of the surviving
//     shards with a per-shard DegradedReport instead of an error — the
//     paper's reduction-tree argument extended across nodes, where a late
//     (here: lost) partial never blocks the combine.
//
// Everything is deterministic: replaying a seeded fleet fault plan at any
// Parallelism produces bit-identical outputs, cycle counts, degraded
// reports, and failover decisions, because shard sub-lookups settle in shard
// order and every health transition is a pure function of prior structured
// results and the fleet clock.
package router

import (
	"errors"
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/rnet"
	"fafnir/internal/sim"
	"fafnir/internal/tensor"
)

// Config shapes a fleet. Zero values select the defaults noted per field;
// Validate names the offending field otherwise.
type Config struct {
	// Shards is the fleet width: independent tree + memory nodes. Default 4.
	Shards int
	// RanksPerShard is each shard's memory width (multiple of 8 for
	// multi-channel DDR4, or any even count for a single channel). Default 8.
	RanksPerShard int
	// BatchCapacity is each shard tree's hardware batch size. Default 32.
	BatchCapacity int
	// Rows is the global embedding-vector count sharded across the fleet.
	// Default 1 Mi. Must be at least Shards so every shard owns a canary row.
	Rows uint64
	// Seed fixes table contents and the breaker's backoff jitter. Default 1.
	Seed int64
	// Parallelism is how many coarse units run at once: shard sub-lookups
	// here, hardware batches inside each shard engine. It changes wall-clock
	// speed only: outputs, cycles, health transitions, and degraded reports
	// are bit-identical at every setting. 0 uses every core; 1 is fully serial.
	Parallelism int
	// Fleet attaches a fleet-level fault schedule: whole-shard losses,
	// flapping shards, correlated rank storms, and a base per-shard plan.
	// The zero plan injects nothing.
	Fleet fault.FleetPlan
	// ProbeBackoff is the fleet-clock delay before a freshly dark shard is
	// probed; successive failed probes double it. Default 50 000 cycles.
	ProbeBackoff sim.Cycle
	// MaxProbeBackoff caps the doubling. Default 8 x ProbeBackoff.
	MaxProbeBackoff sim.Cycle
	// Rnet shapes the in-network reduction tree (internal/rnet) whose
	// leaves are the shards and whose root hands the host one fully reduced
	// pool. Zero fields select the rnet defaults (radix 2).
	Rnet rnet.Config
}

func (c *Config) fillDefaults() {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.RanksPerShard == 0 {
		c.RanksPerShard = 8
	}
	if c.BatchCapacity == 0 {
		c.BatchCapacity = 32
	}
	if c.Rows == 0 {
		c.Rows = 1 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ProbeBackoff == 0 {
		c.ProbeBackoff = 50_000
	}
	if c.MaxProbeBackoff == 0 {
		c.MaxProbeBackoff = 8 * c.ProbeBackoff
	}
	if c.Rnet.Radix == 0 {
		c.Rnet.Radix = rnet.DefaultRadix
	}
}

// Validate reports a descriptive error naming the offending field and value
// for an unusable configuration. Zero values are valid defaults.
func (c Config) Validate() error {
	switch {
	case c.Shards < 0:
		return fmt.Errorf("router: Config.Shards = %d: must be positive (or 0 for the default of 4)", c.Shards)
	case c.RanksPerShard < 0 || c.RanksPerShard == 1 || c.RanksPerShard%2 != 0 && c.RanksPerShard != 0:
		return fmt.Errorf("router: Config.RanksPerShard = %d: must be an even positive count (or 0 for the default of 8)", c.RanksPerShard)
	case c.BatchCapacity < 0:
		return fmt.Errorf("router: Config.BatchCapacity = %d: must be positive (or 0 for the default of 32)", c.BatchCapacity)
	case c.Parallelism < 0:
		return fmt.Errorf("router: Config.Parallelism = %d: must be non-negative (0 uses every core)", c.Parallelism)
	}
	if err := c.Rnet.Validate(); err != nil {
		return err
	}
	return c.Fleet.Validate()
}

// shardNode is one member of the fleet, and a leaf of its tier: a tree, its
// memory (carrying the shard's fault injector, if any), and the placement
// views of its three address regions.
type shardNode struct {
	engine  *core.Engine
	mem     *dram.System
	store   *embedding.Store
	primary primaryView
	// peerView places the rows of the peer shard this node holds replicas
	// for (peer = the shard whose replicaHolder is this node).
	peerView replicaView
	// rows holds copies of what the engine hands out while the fleet's
	// row hand-off is on: the engine's buffers are released with each
	// hardware batch, and the shard runs on a dispatch goroutine, so its
	// rows wait here — touched only by its own sub-lookups — until the
	// settle is over. add is rows.Add, bound once so attaching allocates
	// nothing.
	rows core.RowCopies
	add  core.RowSink
	// res and out hold the node's last primary ([0]) and replica ([1])
	// sub-lookup: the result and the outputs its partial pool points into
	// until the tier's reduce has folded them.
	res [2]core.TimedResult
	out [2]core.OutputSlab
}

// lookup issues the sub-batch at tier cycle at, or when the shard's memory
// is next free if it is still busy past at (a failed sub-lookup is charged
// to no batch); that wait is part of the sub-lookup's span.
func (sh *shardNode) lookup(b embedding.Batch, at sim.Cycle, replica bool) (*core.TimedResult, error) {
	// The views are taken by address: boxing a view value into the
	// interface would allocate on every sub-lookup.
	var view core.Placement
	slot := 0
	if replica {
		view, slot = &sh.peerView, 1
	} else {
		view = &sh.primary
	}
	wait := sim.Max(sh.mem.ToPE(sh.mem.Now()), at) - at
	sh.mem.WaitUntil(sh.mem.FromPE(at))
	mark := sh.rows.Len()
	r := &sh.res[slot]
	if err := sh.engine.TimedLookupInto(r, &sh.out[slot], sh.store, view, sh.mem, b, true); err != nil {
		// A failed sub-lookup delivers nothing, so none of its reads are
		// handed on.
		sh.rows.Truncate(mark)
		return nil, err
	}
	r.TotalCycles += wait
	r.MemCycles += wait
	r.Stages.Backend += wait
	return r, nil
}

func (sh *shardNode) collect(on bool) {
	if on {
		sh.engine.AttachRowSink(sh.add)
	} else {
		sh.engine.AttachRowSink(nil)
	}
}

func (sh *shardNode) reset() { sh.rows.Truncate(0) }

func (sh *shardNode) forward(_ core.RowSink, out []core.StagedRow) []core.StagedRow {
	for i := 0; i < sh.rows.Len(); i++ {
		out = append(out, sh.rows.At(i))
	}
	return out
}

func (sh *shardNode) MemoryCounters() dram.Counters { return sh.mem.Stats() }

// OwnerOf: a shard owns every index routed to it.
func (sh *shardNode) OwnerOf(header.Index) int { return 0 }

// shardLevel names a fleet's events and families: per-shard lanes and
// lookup spans with their query counts, "switch" spans and a combine span,
// and the fafnir_router_* families labelled by shard.
var shardLevel = &level{
	process:     "router",
	leaf:        "shard",
	switchLane:  "switch",
	switchEvent: "switch",
	lookupSpan:  "shard.lookup",
	combine:     true,
	families:    registerShardMetrics,
}

// Fleet is a sharded deployment behind one Lookup front-end: a tier whose
// leaves are shards. Like the single System it is not safe for concurrent
// use — the serving layer's single flusher goroutine is its intended caller.
type Fleet struct {
	tier
	cfg   Config
	store *embedding.Store
}

// New builds the fleet: Shards independent systems over one content-seeded
// global store, with per-shard fault plans compiled from the fleet plan.
func New(cfg Config) (*Fleet, error) { return newFleet(cfg, 1, 0, new(sim.Cycle)) }

// newFleet builds a fleet serving the global indices congruent to phase
// modulo stride, on the simulated timeline clock: a federation's member fm
// of M is newFleet(cfg, M, fm, the federation's clock).
func newFleet(cfg Config, stride, phase uint64, clock *sim.Cycle) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if err := cfg.Fleet.ValidateFor(cfg.Shards); err != nil {
		return nil, err
	}
	if need := uint64(cfg.Shards-1)*stride + phase + 1; cfg.Rows < need {
		return nil, fmt.Errorf("router: Config.Rows = %d: must be at least %d so every shard owns a canary row", cfg.Rows, need)
	}

	mcfg, err := dram.DDR4Ranks(cfg.RanksPerShard) // even, validated above
	if err != nil {
		return nil, err
	}

	store, err := embedding.NewStore(cfg.Rows, 128, uint64(cfg.Seed))
	if err != nil {
		return nil, err
	}
	rcfg := cfg.Rnet
	if len(cfg.Fleet.SwitchStalls) > 0 {
		rcfg.Stalls = make(map[int]sim.Cycle, len(cfg.Fleet.SwitchStalls))
		for _, st := range cfg.Fleet.SwitchStalls {
			// Plan clauses number switches 0..Interior-1; tree node IDs
			// start past the leaves.
			rcfg.Stalls[cfg.Shards+st.Switch] += st.Cycles
		}
	}
	tree, err := rnet.NewTree(cfg.Shards, rcfg)
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, store: store}
	f.tier = tier{
		lv:     shardLevel,
		leaves: make([]leaf, cfg.Shards),
		stride: stride,
		phase:  phase,
		width:  1,
		step:   max(1, cfg.Shards/2),
		par:    cfg.Parallelism,
		plan:   &f.cfg.Fleet,
		rtree:  tree,
		dim:    store.Dim(),
		mcfg:   mcfg,
		clock:  clock,
	}
	for s := 0; s < cfg.Shards; s++ {
		ecfg := core.Default()
		ecfg.NumRanks = cfg.RanksPerShard
		ecfg.BatchCapacity = cfg.BatchCapacity
		ecfg.Parallelism = cfg.Parallelism
		engine, err := core.NewEngine(ecfg)
		if err != nil {
			return nil, err
		}
		mem, err := dram.NewSystem(mcfg)
		if err != nil {
			return nil, err
		}
		node := &shardNode{
			engine:  engine,
			mem:     mem,
			store:   store,
			primary: f.viewOf(s),
		}
		node.add = node.rows.Add
		node.peerView = replicaView{host: node.primary, peer: f.viewOf(f.replicaPeer(s))}
		plan := cfg.Fleet.ShardPlan(s, cfg.Shards, cfg.RanksPerShard)
		if !plan.Empty() {
			inj, err := fault.NewInjector(plan, cfg.RanksPerShard)
			if err != nil {
				return nil, err
			}
			mem.AttachFaults(inj)
		}
		f.leaves[s] = node
		f.breakers = append(f.breakers, &breaker{
			base: cfg.ProbeBackoff,
			cap:  cfg.MaxProbeBackoff,
			seed: splitmix64(uint64(cfg.Seed) ^ uint64(s)<<20),
		})
	}
	return f, nil
}

// viewOf builds shard s's primary placement view. Under stride/phase
// addressing shard s owns the rows phase + stride*(s + Shards*k), so its
// first row is s*stride + phase and consecutive owned rows are stride*Shards
// apart.
func (f *Fleet) viewOf(s int) primaryView {
	n := uint64(f.cfg.Shards)
	first := uint64(s)*f.stride + f.phase
	var owned uint64
	if f.cfg.Rows > first {
		owned = (f.cfg.Rows - first + f.stride*n - 1) / (f.stride * n)
	}
	return primaryView{shards: f.cfg.Shards, stride: int(f.stride), ranks: f.cfg.RanksPerShard, bytes: f.vectorBytes(), slots: owned}
}

// lookup runs a member fleet's sub-batch at the federation's cycle at: a
// fleet absorbs its own faults, and holds no replica of another fleet's
// rows. The result and outputs are the member's flight storage, which the
// federation folds before the member's next batch.
func (f *Fleet) lookup(b embedding.Batch, at sim.Cycle, _ bool) (*core.TimedResult, error) {
	if err := f.lookupAt(b, at, &f.fl.own, &f.fl.out); err != nil {
		return nil, err
	}
	return &f.fl.own, nil
}

// Store exposes the global embedding store (for golden comparisons).
func (f *Fleet) Store() *embedding.Store { return f.store }

// TotalRows reports the global embedding-vector count; the serving layer
// validates wire indices against it.
func (f *Fleet) TotalRows() uint64 { return f.cfg.Rows }

// Config returns the fleet's configuration with defaults resolved.
func (f *Fleet) Config() Config { return f.cfg }

// Topology returns the one-line deployment description the serving CLI
// prints at startup: shard and rank counts plus the combine tree.
func (f *Fleet) Topology() string {
	return fmt.Sprintf("fleet: %d shards x %d ranks, rnet radix %d (%d switches, depth %d)",
		f.cfg.Shards, f.cfg.RanksPerShard, f.cfg.Rnet.Radix, f.rtree.Interior(), f.rtree.Depth())
}

// Health reports shard s's current breaker state.
func (f *Fleet) Health(s int) State { return f.breakers[s].state }

// structuredFault reports whether err is a fault the robustness envelope
// absorbs (as opposed to a programming error, which must surface).
func structuredFault(err error) bool {
	return errors.Is(err, fault.ErrRankFailed) ||
		errors.Is(err, fault.ErrRetriesExhausted) ||
		errors.Is(err, fault.ErrShardDown)
}

// GenerateBatch draws n deterministic Zipf-skewed queries over the global
// row space (16 indices each, sum pooling), for benchmarks and smoke tests.
func (f *Fleet) GenerateBatch(n int, seed int64) (embedding.Batch, error) {
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: n,
		QuerySize:  16,
		Rows:       f.cfg.Rows,
		Seed:       f.cfg.Seed*1_000_003 + seed,
		Dist:       embedding.Zipf,
		ZipfS:      1.3,
	})
	if err != nil {
		return embedding.Batch{}, err
	}
	return gen.Batch(tensor.OpSum), nil
}
