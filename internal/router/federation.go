package router

// Multi-fleet federation: a router tier (tier.go) whose leaves are fleets.
// Index i belongs to member fleet i mod M, and the member's stride/phase
// addressing keeps its internal shards balanced at (i/M) mod Shards. The
// member lookups run concurrently and their partial pools reduce through the
// same pipeline and in-network reduction tree (internal/rnet) the fleets use
// internally — the FAFNIR combine argument applied recursively: shard
// partials reduce inside each fleet, fleet partials reduce across the
// machine room, and the host only ever receives one fully reduced pool.
//
// Every member fleet is built from the same template (rows, seed, fault
// plan), so all members hold bit-identical copies of the global store and
// the federation's outputs are bit-identical to a single fleet's — and to
// the reference oracle — for every pooling op (the integer-valued store
// makes re-association exact; docs/ARCHITECTURE.md §15). A degraded member
// reports its losses through the tier's one loss path, which numbers its
// shard entries across the federation (fleet*Shards + shard), so callers
// see one flat fleet of M*Shards shards. The members share the federation's
// clock: each issues its sub-batch at the federation's cycle, so shard issue
// times, fault stamps and breaker backoff all read one timeline.

import (
	"fmt"

	"fafnir/internal/embedding"
	"fafnir/internal/fault"
	"fafnir/internal/rnet"
	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
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

// fleetLevel names a federation's events and families: member-fleet lookup
// windows on per-fleet lanes, annotated with whether the member degraded,
// cross-fleet "fleet-switch" spans, and per-fleet traffic and degradation
// counters (the "fleet" label is loadgen's per-fleet roll-up key) beside
// the batch total. The member fleets publish nothing of their own — their
// names would collide across members — so in federation mode the
// fafnir_rnet_* families describe the cross-fleet tree.
var fleetLevel = &level{
	process:     "federation",
	leaf:        "fleet",
	switchLane:  "fleet switch",
	switchEvent: "fleet-switch",
	lookupSpan:  "fleet.lookup",
	degradedArg: true,
	families: func(reg *telemetry.Registry, labels []string) Metrics {
		return Metrics{
			lookups: reg.CounterVec("fafnir_federation_fleet_lookups_total",
				"Member-fleet sub-lookups dispatched, per fleet.", "fleet", labels...),
			degraded: reg.CounterVec("fafnir_federation_fleet_degraded_total",
				"Member-fleet sub-lookups returning a degraded report, per fleet.", "fleet", labels...),
			batches: reg.Counter("fafnir_federation_batches_total",
				"Batches combined across the federation."),
		}
	},
}

// Federation is M fleets behind one Lookup front-end: a tier whose leaves
// are fleets. Like Fleet it is not safe for concurrent use; the serving
// layer's single flusher goroutine is its intended caller.
type Federation struct {
	tier
	cfg    FederationConfig
	fleets []*Fleet
}

// NewFederation builds the federation: Fleets member fleets from the shared
// template with stride/phase addressing assigned, plus the cross-fleet
// reduction tree.
func NewFederation(cfg FederationConfig) (*Federation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	// A federation schedules no downtime of its own (its members carry the
	// plan) and keeps no replica holder (step 0).
	fd := &Federation{cfg: cfg, tier: tier{
		lv:     fleetLevel,
		stride: 1,
		width:  cfg.Fleet.Shards,
		par:    cfg.Fleet.Parallelism,
		plan:   &fault.FleetPlan{},
		clock:  new(sim.Cycle),
	}}
	for fm := 0; fm < cfg.Fleets; fm++ {
		fleet, err := newFleet(cfg.Fleet, uint64(cfg.Fleets), uint64(fm), fd.clock)
		if err != nil {
			return nil, fmt.Errorf("router: federation member %d: %w", fm, err)
		}
		fd.fleets = append(fd.fleets, fleet)
		fd.leaves = append(fd.leaves, fleet)
		fd.breakers = append(fd.breakers, &breaker{})
	}
	tree, err := rnet.NewTree(cfg.Fleets, cfg.Rnet)
	if err != nil {
		return nil, err
	}
	// Every member holds the same store behind the same host link, so
	// member 0's shape stands for the federation's.
	member := fd.fleets[0]
	fd.rtree = tree
	fd.dim = member.dim
	fd.mcfg = member.mcfg
	return fd, nil
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

// GenerateBatch draws n deterministic Zipf-skewed queries over the global
// row space, for benchmarks and smoke tests.
func (fd *Federation) GenerateBatch(n int, seed int64) (embedding.Batch, error) {
	return fd.fleets[0].GenerateBatch(n, seed)
}
