package router

// Multi-fleet federation: shards-of-fleets behind one Lookup front-end. A
// Federation owns M member fleets, scatters every batch's indices by fleet
// (index i belongs to fleet i mod M; the member's owner-stride addressing
// keeps its internal shards balanced at (i/M) mod Shards), runs the member
// lookups concurrently, and reduces the fleet partials through the same
// pipeline (pipeline.go) and in-network reduction tree (internal/rnet) the
// fleets use internally — the FAFNIR combine argument applied recursively:
// shard partials reduce inside each fleet, fleet partials reduce across the
// machine room, and the host only ever receives one fully reduced pool.
//
// Every member fleet is built from the same template (rows, seed, fault
// plan), so all members hold bit-identical copies of the global store and
// the federation's outputs are bit-identical to a single fleet's — and to
// the reference oracle — for every pooling op (the integer-valued store
// makes re-association exact; docs/ARCHITECTURE.md §15). A degraded member
// (dark shard pairs inside it) contributes its partial pool and its
// DegradedReport; shard entries are re-labelled with global shard IDs
// (fleet*Shards + shard) so callers see one flat fleet of M*Shards shards.

import (
	"fmt"

	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/header"
	"fafnir/internal/rnet"
	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// FederationConfig shapes a multi-fleet deployment.
type FederationConfig struct {
	// Fleets is the federation width M. Default 2.
	Fleets int
	// Fleet is the member template: shard count, rows (the GLOBAL row
	// space — every member holds a full copy of the store), seed, fault
	// plan, probe backoff, and the intra-fleet reduction tree. The
	// federation assigns each member its owner stride and phase.
	Fleet Config
	// Rnet shapes the cross-fleet reduction tree. Radix 0 inherits the
	// member radix.
	Rnet rnet.Config
}

func (c *FederationConfig) fillDefaults() {
	if c.Fleets == 0 {
		c.Fleets = 2
	}
	// Resolve the member template's defaults here too, so capability
	// accessors (Shards, OwnerOf) read real values.
	c.Fleet.fillDefaults()
	if c.Rnet.Radix == 0 {
		c.Rnet.Radix = c.Fleet.Rnet.Radix
	}
}

// Validate reports a descriptive error naming the offending field for an
// unusable configuration.
func (c FederationConfig) Validate() error {
	switch {
	case c.Fleets < 0:
		return fmt.Errorf("router: FederationConfig.Fleets = %d: must be positive (or 0 for the default of 2)", c.Fleets)
	}
	if err := c.Rnet.Validate(); err != nil {
		return err
	}
	return c.Fleet.Validate()
}

// Federation is M fleets behind one Lookup front-end. Like Fleet it is not
// safe for concurrent use; the serving layer's single flusher goroutine is
// its intended caller.
type Federation struct {
	pipeline
	cfg    FederationConfig
	fleets []*Fleet
	m      *fedMetrics
}

// NewFederation builds the federation: Fleets member fleets from the shared
// template with stride/phase addressing assigned, plus the cross-fleet
// reduction tree.
func NewFederation(cfg FederationConfig) (*Federation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	fed := &Federation{cfg: cfg}
	for fm := 0; fm < cfg.Fleets; fm++ {
		fleet, err := newFleet(cfg.Fleet, uint64(cfg.Fleets), uint64(fm))
		if err != nil {
			return nil, fmt.Errorf("router: federation member %d: %w", fm, err)
		}
		fed.fleets = append(fed.fleets, fleet)
	}
	tree, err := rnet.NewTree(cfg.Fleets, cfg.Rnet)
	if err != nil {
		return nil, err
	}
	// Every member holds the same store behind the same host link, so
	// member 0's shape stands for the federation's.
	member := fed.fleets[0]
	fed.pipeline = pipeline{
		rtree: tree, dim: member.dim, host: member.host, mcfg: member.mcfg, switchEvent: "fleet-switch",
	}
	return fed, nil
}

// fleetOf returns the member fleet owning the primary copy of idx.
func (fd *Federation) fleetOf(idx header.Index) int {
	return int(uint64(idx) % uint64(fd.cfg.Fleets))
}

// Fleets reports the federation width.
func (fd *Federation) Fleets() int { return len(fd.fleets) }

// Fleet returns member fm, for health inspection in tests and tools.
func (fd *Federation) Fleet(fm int) *Fleet { return fd.fleets[fm] }

// Config returns the federation's configuration with defaults resolved.
func (fd *Federation) Config() FederationConfig { return fd.cfg }

// Topology returns the one-line deployment description the serving CLI
// prints at startup: fleets x shards plus both combine tiers.
func (fd *Federation) Topology() string {
	mcfg := fd.cfg.Fleet
	return fmt.Sprintf("federation: %d fleets x %d shards x %d ranks, fleet combine rnet radix %d, cross-fleet rnet radix %d (%d switches, depth %d)",
		fd.cfg.Fleets, mcfg.Shards, mcfg.RanksPerShard, mcfg.Rnet.Radix,
		fd.cfg.Rnet.Radix, fd.rtree.Interior(), fd.rtree.Depth())
}

// TotalRows reports the global embedding-vector count.
func (fd *Federation) TotalRows() uint64 { return fd.cfg.Fleet.Rows }

// AttachRowSink hands the rows every subsequent Lookup reads to sink (nil
// detaches). Member fleets collect their shards' rows while they run; after
// the settle the federation forwards them serially, member by member in
// fleet order and shard order within each, on the caller's goroutine.
func (fd *Federation) AttachRowSink(sink core.RowSink) {
	fd.sink = sink
	for _, m := range fd.fleets {
		m.collect(sink != nil)
	}
}

// Dim reports the embedding dimensionality of the global store.
func (fd *Federation) Dim() int { return fd.fleets[0].Dim() }

// Shards reports the federation's global shard count (Fleets x member
// Shards); the serving layer's cache partitions its budget across it.
func (fd *Federation) Shards() int { return fd.cfg.Fleets * fd.cfg.Fleet.Shards }

// OwnerOf reports the global shard storing the primary copy of idx:
// fleet*Shards + the member's owner shard.
func (fd *Federation) OwnerOf(idx header.Index) int {
	fm := fd.fleetOf(idx)
	return fm*fd.cfg.Fleet.Shards + fd.fleets[fm].OwnerOf(idx)
}

// MemoryCounter sums one cumulative memory-system counter across every
// member fleet's shards.
func (fd *Federation) MemoryCounter(name string) uint64 {
	var total uint64
	for _, fl := range fd.fleets {
		total += fl.MemoryCounter(name)
	}
	return total
}

// GenerateBatch draws n deterministic Zipf-skewed queries over the global
// row space, for benchmarks and smoke tests.
func (fd *Federation) GenerateBatch(n int, seed int64) (embedding.Batch, error) {
	return fd.fleets[0].GenerateBatch(n, seed)
}

// AttachTracer threads a tracer through the federation: member-fleet
// lookup windows land as spans on the PIDRouter timeline (one lane per
// fleet) and the cross-fleet switch fires on the PIDRnet timeline. Member
// fleets stay detached — their per-shard lanes would collide across fleets.
func (fd *Federation) AttachTracer(t telemetry.Tracer) {
	fd.attachTracer(t, "federation", "fleet", len(fd.fleets), "fleet switch")
}

// Lookup scatters the batch across the member fleets, runs every owning
// fleet's sub-batch (concurrently up to the template's Parallelism; settled
// in fleet order), reduces the fleet partials through the cross-fleet rnet
// tree, and returns the combined result. Member fleets absorb their own
// faults (failover, degradation), so like Fleet.Lookup only programming
// errors return a non-nil error; shard losses inside a member surface as a
// merged DegradedReport with global shard IDs.
func (fd *Federation) Lookup(b embedding.Batch) (*core.TimedResult, error) {
	sc, err := partition(b, fd.cfg.Fleets, fd.fleetOf)
	if err != nil {
		return nil, err
	}
	attempts := make([]attempt, fd.cfg.Fleets)
	var run []int
	for fm := range sc.subs {
		if len(sc.subs[fm].Queries) > 0 {
			run = append(run, fm)
		}
	}
	dispatch(attempts, run, fd.cfg.Fleet.Parallelism, func(fm int) (*core.TimedResult, error) {
		return fd.fleets[fm].Lookup(sc.subs[fm])
	})

	// Settle strictly in fleet order: each member's partial pool becomes an
	// rnet leaf entering the network at the member's completion time; the
	// slowest member's completion is the backend stage.
	res := &core.TimedResult{}
	deg := &core.DegradedReport{}
	leaves := make([]*rnet.Partial, fd.cfg.Fleets)
	var stages core.StageCycles
	for _, fm := range run {
		r, err := attempts[fm].res, attempts[fm].err
		if err != nil {
			return nil, fmt.Errorf("router: federation member %d: %w", fm, err)
		}
		fd.countFleetLookup(fm)
		pool := sc.pool(fm, r.Outputs)
		absorb(res, deg, r)
		if !r.Degraded.Empty() {
			fd.countFleetDegraded(fm)
			fd.mergeDegraded(sc, fm, r.Degraded, pool, deg)
		}
		leaves[fm] = &rnet.Partial{Vectors: pool, Ready: r.TotalCycles}
		stages.Backend = sim.Max(stages.Backend, r.TotalCycles)
		fd.emit("fleet.lookup", fm, telemetry.PhaseSpan, fd.clock, r.TotalCycles, "fleet.lookup", fm,
			telemetry.Arg{Key: "degraded", Int: int64(boolInt(!r.Degraded.Empty()))})
	}

	if _, err := fd.reduce(sc, leaves, res, stages); err != nil {
		return nil, err
	}
	if fd.sink != nil {
		for _, fm := range run {
			fd.fleets[fm].forwardRows(fd.sink)
		}
	}
	fd.countBatch()
	if !deg.Empty() {
		res.Degraded = deg
	}
	return res, nil
}

// mergeDegraded folds member fm's degraded report into the batch's: lost
// indices come off the global survivor counts, and shard entries are
// re-labelled with global shard IDs. A member query that lost every index
// delivered a zero vector, not a partial — it must stay out of the pool or
// it would poison min/max pooling — so full losses mark their slot absent.
func (fd *Federation) mergeDegraded(sc *scatter, fm int, member *core.DegradedReport, pool []tensor.Vector, deg *core.DegradedReport) {
	for i, lq := range member.LostQueries {
		ref := sc.refs[fm][lq]
		n := member.LostIndexCounts[i]
		sc.survivors[ref.query] -= n
		deg.AddLost(ref.query, n)
		if n >= ref.indices {
			pool[ref.query] = nil
		}
	}
	for _, e := range member.Shards {
		e.Shard += fm * fd.cfg.Fleet.Shards
		deg.Shards = append(deg.Shards, e)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
