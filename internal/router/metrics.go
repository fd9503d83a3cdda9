package router

import (
	"strconv"

	"fafnir/internal/rnet"
	"fafnir/internal/telemetry"
)

// Metrics is a router tier's family set over the unified telemetry registry.
// A fleet publishes per-shard health as a labelled gauge, plus counters for
// every robustness decision the envelope makes (failures, dark trips,
// probes, reopens, failover retries, lost queries, degraded batches), all
// carrying the shard label so a dashboard can tell which member of the
// fleet is misbehaving. A federation publishes per-fleet traffic and
// degradation counters and its batch total. A family the tier does not
// publish is nil and counts nothing.
type Metrics struct {
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
	// lost counts sub-batches dropped because shard and replica were both
	// unreachable, labelled by the owning shard.
	lost *telemetry.CounterVec
	// degradedBatches counts batches returned with a non-empty
	// DegradedReport.
	degradedBatches *telemetry.Counter
	// lostQueries counts queries whose pooled output is missing at least one
	// shard's contribution.
	lostQueries *telemetry.Counter
	// lookups counts sub-lookups each leaf served (primary and failover),
	// the per-shard or per-fleet traffic family loadgen's roll-up reads.
	lookups *telemetry.CounterVec
	// degraded counts sub-lookups each leaf returned with a degraded
	// report.
	degraded *telemetry.CounterVec
	// batches counts the batches the tier combined.
	batches *telemetry.Counter
}

// rnetMetrics is the switch-tree family set every tier registers after its
// own families: it describes the fleet's tree on a fleet's page and the
// cross-fleet tree on a federation's.
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

// RegisterMetrics publishes the tier's metric families into reg, labelled
// by leaf, followed by the switch-tree families (the serving layer passes
// its own registry through, so router families render on the same /metrics
// page). Call at most once per registry; the registry panics on duplicate
// names, same as every other family.
func (t *tier) RegisterMetrics(reg *telemetry.Registry) {
	labels := make([]string, len(t.leaves))
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	t.m = t.lv.families(reg, labels)
	t.rm = registerRnetMetrics(reg)
}

// registerShardMetrics is a fleet's family set.
func registerShardMetrics(reg *telemetry.Registry, labels []string) Metrics {
	return Metrics{
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
		lost: reg.CounterVec("fafnir_router_lost_subbatches_total",
			"Sub-batches dropped with shard and replica both unreachable.", "shard", labels...),
		degradedBatches: reg.Counter("fafnir_router_degraded_batches_total",
			"Batches returned with a populated degraded report."),
		lostQueries: reg.Counter("fafnir_router_lost_queries_total",
			"Queries whose pooled output lost at least one shard's contribution."),
		lookups: reg.CounterVec("fafnir_router_shard_lookups_total",
			"Sub-lookups served per shard (primary and failover).", "shard", labels...),
	}
}

// The count helpers keep the Lookup path free of nil checks at every site:
// an unregistered tier (no serving layer, e.g. unit benchmarks, or a
// federation's member fleets) and a family the tier does not publish skip
// all metric work.

// add counts n on leaf i of family v.
func add(v *telemetry.CounterVec, i int, n uint64) {
	if v != nil {
		v.At(i).Add(n)
	}
}

// count counts n on counter c.
func count(c *telemetry.Counter, n uint64) {
	if c != nil {
		c.Add(n)
	}
}

func (t *tier) setState(s int, st State) {
	if t.m.shardState != nil {
		t.m.shardState.At(s).Set(int64(st))
	}
}
