// Package router is the fleet front-end for sharded serving: it owns N
// simulated Fafnir systems (one reduction tree + memory node each), scatters
// every batch's indices to the shards that store them, reduces the per-shard
// partial pools through an in-network switch tree (internal/rnet), and wraps
// each sub-lookup in a robustness envelope so the fleet survives the faults
// internal/fault knows how to inject. A Federation stacks fleets behind the
// same scatter → dispatch → reduce pipeline (pipeline.go) one level up.
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
//   - deadline-aware failover: a failed sub-lookup retries against the
//     shard's replica peer (each shard stores a full copy of one peer's
//     rows, extending memmap's diagonal rank replicas to shard
//     granularity), unless the configured retry deadline is already spent;
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

	"fafnir/internal/cpu"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/rnet"
	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
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
	// FailureThreshold is how many consecutive structured failures trip a
	// shard dark (the first failure always marks it suspect). Default 2.
	FailureThreshold int
	// ProbeBackoff is the fleet-clock delay before a freshly dark shard is
	// probed; successive failed probes double it. Default 50 000 cycles.
	ProbeBackoff sim.Cycle
	// MaxProbeBackoff caps the doubling. Default 8 x ProbeBackoff.
	MaxProbeBackoff sim.Cycle
	// RetryDeadline bounds the simulated cycles one batch may spend on
	// failover retries: once the batch's shard phase has consumed the
	// budget, remaining failed sub-lookups degrade instead of retrying.
	// 0 never abandons a retry.
	RetryDeadline sim.Cycle
	// Host models the host link the reduced root pool crosses (zero value:
	// cpu.Default()).
	Host cpu.Config
	// Rnet shapes the in-network reduction tree (internal/rnet) whose
	// leaves are the shards and whose root hands the host one fully reduced
	// pool. Zero fields select the rnet defaults (radix 2).
	Rnet rnet.Config
	// OwnerStride and OwnerPhase generalize index ownership so a federation
	// can stack fleets without skewing shards: this fleet serves the global
	// indices congruent to OwnerPhase modulo OwnerStride, and the owning
	// shard of index i is (i / OwnerStride) mod Shards. The defaults
	// (stride 1, phase 0) are the standalone fleet: every index is served
	// and the owner is i mod Shards, unchanged.
	OwnerStride int
	OwnerPhase  int
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
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 2
	}
	if c.ProbeBackoff == 0 {
		c.ProbeBackoff = 50_000
	}
	if c.MaxProbeBackoff == 0 {
		c.MaxProbeBackoff = 8 * c.ProbeBackoff
	}
	if c.Host == (cpu.Config{}) {
		c.Host = cpu.Default()
	}
	if c.Rnet.Radix == 0 {
		c.Rnet.Radix = rnet.DefaultRadix
	}
	if c.OwnerStride == 0 {
		c.OwnerStride = 1
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
	case c.FailureThreshold < 0:
		return fmt.Errorf("router: Config.FailureThreshold = %d: must be positive (or 0 for the default of 2)", c.FailureThreshold)
	case c.Parallelism < 0:
		return fmt.Errorf("router: Config.Parallelism = %d: must be non-negative (0 uses every core)", c.Parallelism)
	case c.OwnerStride < 0:
		return fmt.Errorf("router: Config.OwnerStride = %d: must be positive (or 0 for the default of 1)", c.OwnerStride)
	case c.OwnerPhase < 0 || c.OwnerStride > 0 && c.OwnerPhase >= c.OwnerStride:
		return fmt.Errorf("router: Config.OwnerPhase = %d: must be in [0, OwnerStride %d)", c.OwnerPhase, max(c.OwnerStride, 1))
	}
	if c.Rows != 0 && c.Shards != 0 {
		stride := uint64(max(c.OwnerStride, 1))
		if need := uint64(c.Shards-1)*stride + uint64(c.OwnerPhase) + 1; c.Rows < need {
			return fmt.Errorf("router: Config.Rows = %d: must be at least %d so every shard owns a canary row", c.Rows, need)
		}
	}
	if err := c.Rnet.Validate(); err != nil {
		return err
	}
	if err := c.Fleet.Validate(); err != nil {
		return err
	}
	if c.Host != (cpu.Config{}) {
		return c.Host.Validate()
	}
	return nil
}

// shardNode is one member of the fleet: a tree, its memory, its fault
// injector, and the placement views of its three address regions.
type shardNode struct {
	engine  *core.Engine
	mem     *dram.System
	inj     *fault.Injector
	primary primaryView
	// peerView places the rows of the peer shard this node holds replicas
	// for (peer = the shard whose replicaHolder is this node).
	peerView replicaView
}

// Fleet is a sharded deployment behind one Lookup front-end. Like the
// single System it is not safe for concurrent use — the serving layer's
// single flusher goroutine is its intended caller.
type Fleet struct {
	pipeline
	cfg      Config
	store    *embedding.Store
	shards   []*shardNode
	breakers []*breaker
	m        *Metrics
}

// New builds the fleet: Shards independent systems over one content-seeded
// global store, with per-shard fault plans compiled from the fleet plan.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if err := cfg.Fleet.ValidateFor(cfg.Shards); err != nil {
		return nil, err
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
	f := &Fleet{cfg: cfg, store: store, pipeline: pipeline{
		rtree: tree, dim: store.Dim(), host: cfg.Host, mcfg: mcfg, switchEvent: "switch",
	}}
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
			primary: f.viewOf(s),
		}
		peer := f.replicaPeer(s)
		node.peerView = replicaView{host: node.primary, peer: f.viewOf(peer)}
		plan := cfg.Fleet.ShardPlan(s, cfg.Shards, cfg.RanksPerShard)
		if !plan.Empty() {
			inj, err := fault.NewInjector(plan, cfg.RanksPerShard)
			if err != nil {
				return nil, err
			}
			node.inj = inj
			mem.AttachFaults(inj)
		}
		f.shards = append(f.shards, node)
		f.breakers = append(f.breakers, &breaker{
			threshold: cfg.FailureThreshold,
			base:      cfg.ProbeBackoff,
			cap:       cfg.MaxProbeBackoff,
			seed:      splitmix64(uint64(cfg.Seed) ^ uint64(s)<<20),
		})
	}
	return f, nil
}

// viewOf builds shard s's primary placement view. Under stride/phase
// addressing shard s owns the rows phase + stride*(s + Shards*k), so its
// first row is s*stride + phase and consecutive owned rows are stride*Shards
// apart.
func (f *Fleet) viewOf(s int) primaryView {
	stride := uint64(f.cfg.OwnerStride)
	n := uint64(f.cfg.Shards)
	first := uint64(s)*stride + uint64(f.cfg.OwnerPhase)
	var owned uint64
	if f.cfg.Rows > first {
		owned = (f.cfg.Rows - first + stride*n - 1) / (stride * n)
	}
	return primaryView{shards: f.cfg.Shards, stride: f.cfg.OwnerStride, ranks: f.cfg.RanksPerShard, bytes: 512, slots: owned}
}

// ownerOf returns the shard storing the primary copy of idx.
func (f *Fleet) ownerOf(idx header.Index) int {
	return int(uint64(idx) / uint64(f.cfg.OwnerStride) % uint64(f.cfg.Shards))
}

// canaryRow is the first row shard s owns under the fleet's stride/phase
// addressing; the probe path reads it as the one-query canary. Validate
// guarantees it exists.
func (f *Fleet) canaryRow(s int) header.Index {
	return header.Index(uint64(s)*uint64(f.cfg.OwnerStride) + uint64(f.cfg.OwnerPhase))
}

// OwnerOf reports the shard storing the primary copy of idx. The serving
// layer's hot-embedding cache uses it to partition its byte budget by owner
// shard, so fleet mode caches per shard.
func (f *Fleet) OwnerOf(idx header.Index) int { return f.ownerOf(idx) }

// Row returns the raw embedding row idx from the global store. The serving
// layer's hot-embedding cache fills from it after a flushed batch: the store
// is the ground truth every DRAM read (remapped or not) returns, so host-side
// copies are bit-identical to what the shards would serve.
func (f *Fleet) Row(idx header.Index) (tensor.Vector, error) { return f.store.Vector(idx) }

// Dim reports the embedding dimensionality of the fleet's store.
func (f *Fleet) Dim() int { return f.store.Dim() }

// replicaHolder returns the shard storing the replica copy of shard s's
// rows: s + max(1, N/2) mod N, so a single shard loss never takes out both
// copies (for N >= 2) and paired losses degrade evenly — memmap's diagonal
// rank replica lifted to shard granularity. A one-shard fleet keeps no
// replicas.
func (f *Fleet) replicaHolder(s int) int {
	n := f.cfg.Shards
	step := n / 2
	if step == 0 {
		step = 1
	}
	return (s + step) % n
}

// replicaPeer inverts replicaHolder: the shard whose rows s holds replicas
// for.
func (f *Fleet) replicaPeer(s int) int {
	n := f.cfg.Shards
	step := n / 2
	if step == 0 {
		step = 1
	}
	return (s - step + n) % n
}

// Store exposes the global embedding store (for golden comparisons).
func (f *Fleet) Store() *embedding.Store { return f.store }

// TotalRows reports the global embedding-vector count; the serving layer
// validates wire indices against it.
func (f *Fleet) TotalRows() uint64 { return f.cfg.Rows }

// Shards reports the fleet width.
func (f *Fleet) Shards() int { return f.cfg.Shards }

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

// AttachTracer threads a telemetry tracer through the router: subsequent
// batches emit per-shard scatter windows, failover retries, probes, and the
// combine as spans on the PIDRouter timeline (one lane per shard, all in
// fleet-clock cycles) and the switch firings on the PIDRnet timeline.
// Per-shard engine/DRAM traces stay detached in fleet mode — their
// rank-keyed lanes would collide across shards. A nil tracer detaches.
// Tracing is observational only.
func (f *Fleet) AttachTracer(t telemetry.Tracer) {
	f.attachTracer(t, "router", "shard", len(f.shards), "switch", "combine")
}

// MemoryCounter sums one cumulative memory-system counter across the fleet
// (e.g. "dram.row_hits"); the serving layer's per-flush attribution works
// unchanged over a fleet backend.
func (f *Fleet) MemoryCounter(name string) uint64 {
	var total uint64
	for _, sh := range f.shards {
		total += sh.mem.Stats().Counter(name)
	}
	return total
}

// structuredFault reports whether err is a fault the robustness envelope
// absorbs (as opposed to a programming error, which must surface).
func structuredFault(err error) bool {
	return errors.Is(err, fault.ErrRankFailed) ||
		errors.Is(err, fault.ErrRetriesExhausted) ||
		errors.Is(err, fault.ErrShardDown)
}

// lookupShard runs one sub-batch on shard s through the given placement
// view. The fleet-plan down check runs first so a dead node fails fast
// without touching its engine or memory state — determinism across replays
// depends on dead shards staying untouched.
func (f *Fleet) lookupShard(s int, view core.Placement, b embedding.Batch, at sim.Cycle) (*core.TimedResult, error) {
	if f.cfg.Fleet.Down(s, at) {
		return nil, fmt.Errorf("router: shard %d is down at fleet cycle %d: %w", s, at, fault.ErrShardDown)
	}
	sh := f.shards[s]
	return sh.engine.TimedLookupFaulted(f.store, view, sh.mem, b, true, sh.inj)
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

// flight is one batch in flight through the fleet: the state Lookup's phases
// hand along.
type flight struct {
	sc    *scatter
	start sim.Cycle // fleet clock at batch entry
	res   *core.TimedResult
	deg   *core.DegradedReport
	// entries[s] is shard s's degraded-report entry, created on first use.
	entries []*core.ShardDegraded
	// leaves[s] is the partial pool delivered for shard s's sub-batch — by
	// the shard itself or its replica holder — nil while undelivered.
	leaves   []*rnet.Partial
	partials int // delivered sub-queries, the combine span's annotation
	// stages accumulates the probe, backend and failover windows as the
	// phases run; reduce completes it.
	stages core.StageCycles
}

func (fl *flight) entry(s int) *core.ShardDegraded {
	if fl.entries[s] == nil {
		fl.entries[s] = &core.ShardDegraded{Shard: s}
	}
	return fl.entries[s]
}

// Lookup scatters the batch across the fleet and runs it through the five
// phases StageCycles names: probe dark shards whose backoff elapsed, run
// every owning shard's sub-batch (backend), retry failed sub-batches on
// replica shards within the retry deadline (failover), then reduce the
// delivered partial pools through the switch tree and move the root pool to
// the host (combine, transfer). A batch that lost data to unreachable shard
// pairs still succeeds: the outputs are the partial reduction of every
// surviving shard and res.Degraded itemizes the loss per shard and per
// query. Only programming errors (invariant violations, bad ops) return a
// non-nil error.
func (f *Fleet) Lookup(b embedding.Batch) (*core.TimedResult, error) {
	sc, err := partition(b, f.cfg.Shards, f.ownerOf)
	if err != nil {
		return nil, err
	}
	fl := &flight{
		sc:      sc,
		start:   f.clock,
		res:     &core.TimedResult{},
		deg:     &core.DegradedReport{},
		entries: make([]*core.ShardDegraded, f.cfg.Shards),
		leaves:  make([]*rnet.Partial, f.cfg.Shards),
	}
	if err := f.probe(fl); err != nil {
		return nil, err
	}
	failed, err := f.backend(fl)
	if err != nil {
		return nil, err
	}
	if err := f.failover(fl, failed); err != nil {
		return nil, err
	}
	rres, err := f.reduce(sc, fl.leaves, fl.res, fl.stages)
	if err != nil {
		return nil, err
	}
	windows := fl.stages.Probe + fl.stages.Backend + fl.stages.Failover
	f.emit("combine", f.cfg.Shards, telemetry.PhaseSpan, fl.start+windows, fl.res.TotalCycles-windows, "combine", 0,
		telemetry.Arg{Key: "partials", Int: int64(fl.partials)},
		telemetry.Arg{Key: "switch_fires", Int: int64(rres.Fires)})

	for _, e := range fl.entries {
		if e != nil {
			if e.State == "" {
				e.State = f.breakers[e.Shard].state.String()
			}
			fl.deg.Shards = append(fl.deg.Shards, *e)
		}
	}
	if !fl.deg.Empty() {
		fl.res.Degraded = fl.deg
		f.countDegraded(len(fl.deg.LostQueries))
	}
	return fl.res, nil
}

// probe sends every dark shard whose backoff elapsed a one-query canary
// lookup before the batch scatters. Probe time overlaps across shards (the
// slowest one gates the scatter).
func (f *Fleet) probe(fl *flight) error {
	for s, br := range f.breakers {
		if !br.probeDue(fl.start) {
			continue
		}
		f.countProbe(s)
		canary := embedding.Batch{Op: tensor.OpSum, Queries: []embedding.Query{
			{Indices: header.NewIndexSet(f.canaryRow(s))},
		}}
		r, err := f.lookupShard(s, f.shards[s].primary, canary, fl.start)
		switch {
		case err == nil:
			br.onSuccess()
			f.setShardState(s, Healthy)
			fl.stages.Probe = sim.Max(fl.stages.Probe, r.TotalCycles)
			f.countReopen(s)
			f.emit("probe.ok", s, telemetry.PhaseInstant, fl.start, 0, "probe", s)
		case structuredFault(err):
			br.onProbeFailure(fl.start)
			f.emit("probe.fail", s, telemetry.PhaseInstant, fl.start, 0, "probe", s)
		default:
			return err
		}
	}
	return nil
}

// backend runs every owning shard's sub-batch on its primary, concurrently
// up to Parallelism — dark shards are skipped, their traffic goes straight
// to failover — then settles the attempts strictly in shard order: delivered
// partials stage as tree leaves, structured failures drive the breakers and
// are returned for the failover phase.
func (f *Fleet) backend(fl *flight) (failed []int, err error) {
	subs := fl.sc.subs
	attempts := make([]attempt, len(subs))
	var run []int
	for s := range subs {
		switch {
		case len(subs[s].Queries) == 0:
		case f.breakers[s].state == Dark:
			attempts[s].err = fmt.Errorf("router: shard %d is dark (breaker open): %w", s, fault.ErrShardDown)
		default:
			run = append(run, s)
		}
	}
	dispatch(attempts, run, f.cfg.Parallelism, func(s int) (*core.TimedResult, error) {
		return f.lookupShard(s, f.shards[s].primary, subs[s], fl.start)
	})
	scatterAt := fl.start + fl.stages.Probe
	for s, a := range attempts {
		if len(subs[s].Queries) == 0 {
			continue
		}
		switch {
		case a.err == nil:
			f.breakers[s].onSuccess()
			f.setShardState(s, Healthy)
			f.deliver(fl, s, s, a.res, a.res.TotalCycles)
			fl.stages.Backend = sim.Max(fl.stages.Backend, a.res.TotalCycles)
			f.emit("shard.lookup", s, telemetry.PhaseSpan, scatterAt, a.res.TotalCycles, "shard.lookup", s,
				telemetry.Arg{Key: "queries", Int: int64(len(subs[s].Queries))})
		case structuredFault(a.err):
			// A shard that was already dark never ran: the breaker has
			// nothing new to learn from its synthesized error.
			if f.breakers[s].state != Dark {
				f.tripBreaker(s, fl.start)
			}
			f.blame(fl, s, a.err)
			failed = append(failed, s)
			f.emit("shard.fail", s, telemetry.PhaseInstant, scatterAt, 0, "shard.fail", s)
		default:
			return nil, a.err
		}
	}
	return failed, nil
}

// failover retries each failed sub-batch once against its replica holder,
// serially in shard order, unless the retry deadline is spent or the replica
// is itself unreachable — then the sub-batch's contribution is dropped and
// the loss recorded.
func (f *Fleet) failover(fl *flight, failed []int) error {
	retryAt := fl.start + fl.stages.Probe + fl.stages.Backend
	for _, s := range failed {
		target := f.replicaHolder(s)
		spent := fl.stages.Probe + fl.stages.Backend + fl.stages.Failover
		switch {
		case f.cfg.RetryDeadline > 0 && spent >= f.cfg.RetryDeadline:
			f.countAbandoned(s)
			f.lose(fl, s)
			continue
		case target == s || f.breakers[target].state == Dark || f.cfg.Fleet.Down(target, fl.start):
			f.lose(fl, s)
			continue
		}
		f.countRetry(s)
		r, err := f.lookupShard(target, f.shards[target].peerView, fl.sc.subs[s], fl.start)
		switch {
		case err == nil:
			f.countFailover(s)
			fl.entry(s).FailedOver = true
			// A failed-over partial is just a late leaf: it enters the
			// network when its serial retry completes, after the scatter
			// window and every earlier retry.
			f.deliver(fl, s, target, r, fl.stages.Backend+fl.stages.Failover+r.TotalCycles)
			fl.stages.Failover += r.TotalCycles
			f.emit("shard.failover", target, telemetry.PhaseSpan, retryAt, r.TotalCycles, "shard.failover", s,
				telemetry.Arg{Key: "for_shard", Int: int64(s)})
		case structuredFault(err):
			f.tripBreaker(target, fl.start)
			f.blame(fl, target, err)
			f.lose(fl, s)
		default:
			return err
		}
	}
	return nil
}

// deliver stages the partial pool shard served produced for shard owner's
// sub-batch as owner's tree leaf, entering the network at ready, and folds
// the sub-lookup's statistics into the batch. The serving shard's own
// degraded work (in-shard rank remaps) lands on its report entry.
func (f *Fleet) deliver(fl *flight, owner, served int, r *core.TimedResult, ready sim.Cycle) {
	f.countShardLookup(served)
	fl.leaves[owner] = &rnet.Partial{Vectors: fl.sc.pool(owner, r.Outputs), Ready: ready}
	fl.partials += len(r.Outputs)
	absorb(fl.res, fl.deg, r)
	if !r.Degraded.Empty() {
		fl.entry(served).FailedRanks = append([]int(nil), r.Degraded.FailedRanks...)
	}
}

// tripBreaker feeds one structured sub-lookup failure to shard s's breaker.
func (f *Fleet) tripBreaker(s int, now sim.Cycle) {
	f.countFailure(s)
	if f.breakers[s].onFailure(now) {
		f.countDark(s)
	}
	f.setShardState(s, f.breakers[s].state)
}

// blame records the failure on shard s's report entry.
func (f *Fleet) blame(fl *flight, s int, err error) {
	e := fl.entry(s)
	e.State = f.breakers[s].state.String()
	e.Err = err.Error()
}

// lose records shard s's sub-batch as lost — shard and replica were both
// unreachable: its queries keep whatever partials other shards contributed,
// the loss is itemized per query, and the shard's entry carries the totals.
func (f *Fleet) lose(fl *flight, s int) {
	e := fl.entry(s)
	for _, ref := range fl.sc.refs[s] {
		fl.sc.survivors[ref.query] -= ref.indices
		e.LostQueries++
		e.LostIndices += ref.indices
		fl.deg.AddLost(ref.query, ref.indices)
	}
	f.countLostShard(s)
}
