package router

import (
	"strconv"

	"fafnir/internal/telemetry"
)

// fedMetrics is the federation's family set: per-fleet traffic and
// degradation counters (the "fleet" label is loadgen's per-fleet roll-up
// key) and the batch total, followed by the shared rnet switch families.
// The member fleets' own families are deliberately NOT registered — their
// names would collide across members — so in federation mode the
// fafnir_rnet_* families describe the cross-fleet tree.
type fedMetrics struct {
	fleetLookups  *telemetry.CounterVec
	fleetDegraded *telemetry.CounterVec
	batches       *telemetry.Counter
}

// RegisterMetrics publishes the federation's metric families into reg. Call
// at most once per registry; the registry panics on duplicate names.
func (fd *Federation) RegisterMetrics(reg *telemetry.Registry) {
	labels := make([]string, fd.cfg.Fleets)
	for fm := range labels {
		labels[fm] = strconv.Itoa(fm)
	}
	fd.m = &fedMetrics{
		fleetLookups: reg.CounterVec("fafnir_federation_fleet_lookups_total",
			"Member-fleet sub-lookups dispatched, per fleet.", "fleet", labels...),
		fleetDegraded: reg.CounterVec("fafnir_federation_fleet_degraded_total",
			"Member-fleet sub-lookups returning a degraded report, per fleet.", "fleet", labels...),
		batches: reg.Counter("fafnir_federation_batches_total",
			"Batches combined across the federation."),
	}
	fd.rm = registerRnetMetrics(reg)
}

func (fd *Federation) countFleetLookup(fm int) {
	if fd.m != nil {
		fd.m.fleetLookups.At(fm).Add(1)
	}
}

func (fd *Federation) countFleetDegraded(fm int) {
	if fd.m != nil {
		fd.m.fleetDegraded.At(fm).Add(1)
	}
}

func (fd *Federation) countBatch() {
	if fd.m != nil {
		fd.m.batches.Add(1)
	}
}
