package router

import (
	"strconv"

	"fafnir/internal/rnet"
	"fafnir/internal/telemetry"
)

// Metrics is the router's family set over the unified telemetry registry:
// per-shard health as a labelled gauge, plus counters for every robustness
// decision the envelope makes (failures, dark trips, probes, reopens,
// failover retries, abandoned retries, lost queries, degraded batches).
// All families carry the shard label so a dashboard can tell which member
// of the fleet is misbehaving.
type Metrics struct {
	reg *telemetry.Registry

	// shardState publishes each shard's breaker state as an integer gauge:
	// 0 healthy, 1 suspect, 2 dark.
	shardState *telemetry.GaugeVec
	// failures counts structured sub-lookup failures per shard (primary and
	// failover attempts alike).
	failures *telemetry.CounterVec
	// dark counts healthy/suspect → dark breaker trips per shard.
	dark *telemetry.CounterVec
	// probes counts canary lookups sent to dark shards.
	probes *telemetry.CounterVec
	// reopens counts successful probes (dark → healthy transitions).
	reopens *telemetry.CounterVec
	// retries counts failover sub-lookups dispatched to replica shards,
	// labelled by the failed primary shard.
	retries *telemetry.CounterVec
	// failovers counts failover sub-lookups that succeeded, labelled by the
	// failed primary shard.
	failovers *telemetry.CounterVec
	// abandoned counts failover retries skipped because the batch's retry
	// deadline was already spent.
	abandoned *telemetry.CounterVec
	// lost counts sub-batches dropped because shard and replica were both
	// unreachable, labelled by the owning shard.
	lost *telemetry.CounterVec
	// degradedBatches counts batches returned with a non-empty
	// DegradedReport.
	degradedBatches *telemetry.Counter
	// lostQueries counts queries whose pooled output is missing at least one
	// shard's contribution.
	lostQueries *telemetry.Counter
	// lookups counts sub-lookups each shard served (primary and failover),
	// the per-shard traffic family loadgen's roll-up reads.
	lookups *telemetry.CounterVec
}

// rnetMetrics is the switch-tree family set both front-ends register after
// their own families: it describes the fleet's tree on a fleet's page and
// the cross-fleet tree on a federation's.
type rnetMetrics struct {
	// combines counts vector combines performed at rnet switches.
	combines *telemetry.Counter
	// fires counts switch firings (one per live switch per batch).
	fires *telemetry.Counter
	// missing counts switch children that never arrived (dark subtrees).
	missing *telemetry.Counter
	// links counts child-to-parent partial-pool hops.
	links *telemetry.Counter
	// critical publishes the last batch's combine critical path, in
	// simulated cycles.
	critical *telemetry.Gauge
}

func registerRnetMetrics(reg *telemetry.Registry) *rnetMetrics {
	return &rnetMetrics{
		combines: reg.Counter("fafnir_rnet_combines_total",
			"Vector combines performed at rnet switch nodes."),
		fires: reg.Counter("fafnir_rnet_switch_fires_total",
			"Rnet switch firings (one per live switch per batch)."),
		missing: reg.Counter("fafnir_rnet_missing_children_total",
			"Rnet switch children absent at fire time (dark subtrees)."),
		links: reg.Counter("fafnir_rnet_link_transfers_total",
			"Child-to-parent partial-pool hops through the rnet tree."),
		critical: reg.Gauge("fafnir_rnet_critical_path_cycles",
			"Combine critical path of the most recent batch, in simulated cycles."),
	}
}

// count folds one reduction's switch activity into the families; a nil set
// (no registry attached) skips all metric work.
func (m *rnetMetrics) count(r *rnet.Result) {
	if m == nil {
		return
	}
	m.combines.Add(uint64(r.Combines))
	m.fires.Add(uint64(r.Fires))
	m.missing.Add(uint64(r.MissingChildren))
	m.links.Add(uint64(r.LinkTransfers))
	m.critical.Set(int64(r.CriticalPath))
}

// RegisterMetrics publishes the router's metric families into reg (the
// serving layer passes its own registry through, so router families render
// on the same /metrics page). Call at most once per registry; the registry
// panics on duplicate names, same as every other family.
func (f *Fleet) RegisterMetrics(reg *telemetry.Registry) {
	labels := make([]string, f.cfg.Shards)
	for s := range labels {
		labels[s] = strconv.Itoa(s)
	}
	m := &Metrics{
		reg: reg,
		shardState: reg.GaugeVec("fafnir_router_shard_state",
			"Breaker state per shard: 0 healthy, 1 suspect, 2 dark.", "shard", labels...),
		failures: reg.CounterVec("fafnir_router_shard_failures_total",
			"Structured sub-lookup failures per shard.", "shard", labels...),
		dark: reg.CounterVec("fafnir_router_shard_dark_total",
			"Breaker trips to the dark state per shard.", "shard", labels...),
		probes: reg.CounterVec("fafnir_router_probes_total",
			"Canary probe lookups sent to dark shards.", "shard", labels...),
		reopens: reg.CounterVec("fafnir_router_reopens_total",
			"Successful probes reopening a dark shard.", "shard", labels...),
		retries: reg.CounterVec("fafnir_router_retries_total",
			"Failover sub-lookups dispatched to replica shards, by failed primary.", "shard", labels...),
		failovers: reg.CounterVec("fafnir_router_failovers_total",
			"Failover sub-lookups answered by replica shards, by failed primary.", "shard", labels...),
		abandoned: reg.CounterVec("fafnir_router_retries_abandoned_total",
			"Failover retries abandoned at the retry deadline, by failed primary.", "shard", labels...),
		lost: reg.CounterVec("fafnir_router_lost_subbatches_total",
			"Sub-batches dropped with shard and replica both unreachable.", "shard", labels...),
		degradedBatches: reg.Counter("fafnir_router_degraded_batches_total",
			"Batches returned with a populated degraded report."),
		lostQueries: reg.Counter("fafnir_router_lost_queries_total",
			"Queries whose pooled output lost at least one shard's contribution."),
		lookups: reg.CounterVec("fafnir_router_shard_lookups_total",
			"Sub-lookups served per shard (primary and failover).", "shard", labels...),
	}
	f.m = m
	f.rm = registerRnetMetrics(reg)
}

// The count helpers keep the Lookup path free of nil checks at every site;
// an unregistered fleet (no serving layer, e.g. unit benchmarks) skips all
// metric work.

func (f *Fleet) setShardState(s int, st State) {
	if f.m != nil {
		f.m.shardState.At(s).Set(int64(st))
	}
}

func (f *Fleet) countFailure(s int) {
	if f.m != nil {
		f.m.failures.At(s).Add(1)
	}
}

func (f *Fleet) countDark(s int) {
	if f.m != nil {
		f.m.dark.At(s).Add(1)
	}
}

func (f *Fleet) countProbe(s int) {
	if f.m != nil {
		f.m.probes.At(s).Add(1)
	}
}

func (f *Fleet) countReopen(s int) {
	if f.m != nil {
		f.m.reopens.At(s).Add(1)
	}
}

func (f *Fleet) countRetry(s int) {
	if f.m != nil {
		f.m.retries.At(s).Add(1)
	}
}

func (f *Fleet) countFailover(s int) {
	if f.m != nil {
		f.m.failovers.At(s).Add(1)
	}
}

func (f *Fleet) countAbandoned(s int) {
	if f.m != nil {
		f.m.abandoned.At(s).Add(1)
	}
}

// countLostShard records a dropped sub-batch for shard s.
func (f *Fleet) countLostShard(s int) {
	if f.m != nil {
		f.m.lost.At(s).Add(1)
	}
}

func (f *Fleet) countDegraded(lostQueries int) {
	if f.m != nil {
		f.m.degradedBatches.Add(1)
		f.m.lostQueries.Add(uint64(lostQueries))
	}
}

// countShardLookup records one served sub-lookup on shard s.
func (f *Fleet) countShardLookup(s int) {
	if f.m != nil {
		f.m.lookups.At(s).Add(1)
	}
}
