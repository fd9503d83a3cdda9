package fault

import (
	"errors"
	"fmt"
	"strings"

	"fafnir/internal/sim"
)

// ErrShardDown reports a sub-lookup dispatched to a shard that the fleet
// fault plan has taken down (whole-node loss or a flap window). The router
// confines it to failover handling; it never reaches HTTP callers of a
// replicated fleet.
var ErrShardDown = errors.New("fault: shard down")

// ShardFailure schedules one whole shard going dark: every lookup dispatched
// to it from fleet cycle At onward fails with ErrShardDown, modelling a dead
// node (power loss, kernel panic, partitioned link).
type ShardFailure struct {
	// Shard is the fleet-level shard identifier.
	Shard int
	// At is the first fleet-clock cycle at which the shard is down.
	At sim.Cycle
}

// ShardFlap schedules a transient whole-shard outage: the shard is down in
// [DownAt, UpAt) and comes back by itself, modelling a reboot or a transient
// partition. A flapping shard exercises the breaker's probe/reopen path.
type ShardFlap struct {
	// Shard is the fleet-level shard identifier.
	Shard int
	// DownAt is the first fleet-clock cycle of the outage.
	DownAt sim.Cycle
	// UpAt is the first cycle at which the shard serves again.
	UpAt sim.Cycle
}

// RankStorm schedules a correlated burst of rank failures across the fleet:
// at cycle At, Ranks distinct (shard, rank) pairs drawn from the plan seed go
// dark simultaneously, modelling a correlated hardware event (a bad firmware
// push, a thermal excursion across a row of nodes).
type RankStorm struct {
	// At is the memory-clock cycle at which the storm strikes.
	At sim.Cycle
	// Ranks is how many (shard, rank) pairs go dark.
	Ranks int
}

// SwitchStall schedules a slow switch in the in-network reduction tree
// (internal/rnet): switch node Switch (numbered 0..Interior-1, bottom-up
// level order, left to right) adds Cycles extra cycles every time it fires,
// modelling a congested or degraded network switch. The reduction stays
// exact — a stalled switch delays its subtree's partials, it never drops
// them — so only cycle counts change, never outputs.
type SwitchStall struct {
	// Switch is the interior-switch ordinal in the rnet tree.
	Switch int
	// Cycles is the extra firing latency.
	Cycles sim.Cycle
}

// FleetPlan is a complete, serializable fleet-level fault schedule: shard
// losses and flaps evaluated against the router's fleet clock, correlated
// rank storms compiled into per-shard rank failures, and a base per-shard
// Plan (ECC probability, retry policy) applied to every shard under a
// shard-derived seed. The zero value injects nothing.
type FleetPlan struct {
	// Seed drives the storm target draw and derives per-shard seeds. Two
	// plans with equal seeds compile to identical per-shard schedules.
	Seed uint64
	// ShardFailures lists whole shards that go down and stay down.
	ShardFailures []ShardFailure
	// ShardFlaps lists transient whole-shard outages.
	ShardFlaps []ShardFlap
	// RankStorms lists correlated rank-failure bursts.
	RankStorms []RankStorm
	// SwitchStalls lists slow rnet switches.
	SwitchStalls []SwitchStall
	// Shard is the base plan applied to every shard (rank failures listed
	// here strike the same local rank on every shard; ECC and retry policy
	// apply per shard with a seed derived from Seed — Shard.Seed itself is
	// never read).
	Shard Plan
}

// Empty reports whether the plan injects nothing at any level.
func (p FleetPlan) Empty() bool {
	return len(p.ShardFailures) == 0 && len(p.ShardFlaps) == 0 &&
		len(p.RankStorms) == 0 && len(p.SwitchStalls) == 0 && p.Shard.Empty()
}

// Validate reports a descriptive error for an unusable plan.
func (p FleetPlan) Validate() error {
	for _, f := range p.ShardFailures {
		if f.Shard < 0 {
			return fmt.Errorf("fault: shard failure on negative shard %d", f.Shard)
		}
	}
	for _, f := range p.ShardFlaps {
		if f.Shard < 0 {
			return fmt.Errorf("fault: shard flap on negative shard %d", f.Shard)
		}
		if f.UpAt <= f.DownAt {
			return fmt.Errorf("fault: shard %d flap window [%d,%d) is empty", f.Shard, f.DownAt, f.UpAt)
		}
	}
	for _, s := range p.RankStorms {
		if s.Ranks <= 0 {
			return fmt.Errorf("fault: rank storm at cycle %d kills %d ranks; must be positive", s.At, s.Ranks)
		}
	}
	for _, s := range p.SwitchStalls {
		if s.Switch < 0 {
			return fmt.Errorf("fault: switch stall on negative switch %d", s.Switch)
		}
		if s.Cycles == 0 {
			return fmt.Errorf("fault: switch %d stall of 0 cycles; must add latency", s.Switch)
		}
	}
	return p.Shard.Validate()
}

// ValidateFor additionally bounds the shard identifiers against the fleet
// size, rejecting a plan naming a shard that does not exist.
func (p FleetPlan) ValidateFor(shards int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, f := range p.ShardFailures {
		if f.Shard >= shards {
			return fmt.Errorf("fault: shard failure on shard %d outside [0,%d)", f.Shard, shards)
		}
	}
	for _, f := range p.ShardFlaps {
		if f.Shard >= shards {
			return fmt.Errorf("fault: shard flap on shard %d outside [0,%d)", f.Shard, shards)
		}
	}
	return nil
}

// Down reports whether the plan has shard down at fleet cycle at: past a
// scheduled whole-shard failure, or inside a flap window.
func (p FleetPlan) Down(shard int, at sim.Cycle) bool {
	for _, f := range p.ShardFailures {
		if f.Shard == shard && at >= f.At {
			return true
		}
	}
	for _, f := range p.ShardFlaps {
		if f.Shard == shard && at >= f.DownAt && at < f.UpAt {
			return true
		}
	}
	return false
}

// ShardPlan compiles the fleet plan into shard's own Plan: the base per-shard
// plan with a shard-derived seed, plus every storm-drawn rank failure that
// lands on this shard. The draw is pure in (Seed, storm index, draw index),
// so every shard compiles the same fleet-wide storm pattern and two fleets
// built from equal plans observe identical faults.
func (p FleetPlan) ShardPlan(shard, shards, ranksPerShard int) Plan {
	out := p.Shard
	out.RankFailures = append([]RankFailure(nil), p.Shard.RankFailures...)
	// Derive a distinct transient-fault seed per shard so ECC draws are not
	// correlated across the fleet (a zero-seed base plan stays zero only on
	// shard 0 by accident; mix unconditionally).
	out.Seed = splitmix64(p.Seed ^ (uint64(shard)+1)*0x9e3779b97f4a7c15)
	for si, storm := range p.RankStorms {
		for k := 0; k < storm.Ranks; k++ {
			draw := splitmix64(p.Seed ^ uint64(si)<<32 ^ uint64(k)*0x2545f4914f6cdd1d)
			s := int(draw % uint64(shards))
			r := int(draw >> 32 % uint64(ranksPerShard))
			if s == shard {
				out.RankFailures = append(out.RankFailures, RankFailure{Rank: r, At: storm.At})
			}
		}
	}
	return out
}

// String renders the plan compactly (the ParseFleet format).
func (p FleetPlan) String() string {
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, f := range p.ShardFailures {
		parts = append(parts, fmt.Sprintf("shard=%d@%d", f.Shard, f.At))
	}
	for _, f := range p.ShardFlaps {
		parts = append(parts, fmt.Sprintf("flap=%d@%d-%d", f.Shard, f.DownAt, f.UpAt))
	}
	for _, s := range p.RankStorms {
		parts = append(parts, fmt.Sprintf("storm=%d@%d", s.Ranks, s.At))
	}
	for _, s := range p.SwitchStalls {
		parts = append(parts, fmt.Sprintf("swstall=%d+%d", s.Switch, s.Cycles))
	}
	// The fleet seed is the only seed (ShardPlan derives every shard's from
	// it), so the base plan's own is not rendered as a second seed clause.
	base := p.Shard
	base.Seed = 0
	if b := base.String(); b != "" {
		parts = append(parts, b)
	}
	return strings.Join(parts, ";")
}

// ParseFleet builds a fleet plan from a compact spec, the format of
// fafnir-serve's -fault-storm flag: semicolon-separated clauses of
//
//	seed=N         storm/ECC seed
//	shard=S@C      shard S goes down at fleet cycle C and stays down
//	flap=S@D-U     shard S is down in fleet-cycle window [D,U)
//	storm=N@C      N seed-drawn (shard, rank) pairs go dark at cycle C
//	swstall=K+N    rnet switch K fires N cycles late
//	rank=R@C       local rank R goes dark at cycle C on every shard
//	ecc=P          per-shard transient read-fault probability
//	stall=PE+N     tree node PE gains N extra cycles on every shard
//
// e.g. "shard=1@1;storm=4@20000;ecc=0.0005;seed=7". An empty spec is the
// empty plan.
func ParseFleet(spec string) (FleetPlan, error) {
	var p FleetPlan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	var baseClauses []string
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return FleetPlan{}, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		switch key {
		case "seed":
			if err := scan(val, "%d", &p.Seed); err != nil {
				return FleetPlan{}, fmt.Errorf("fault: bad seed %q: %v", val, err)
			}
		case "shard":
			var f ShardFailure
			if err := scan(val, "%d@%d", &f.Shard, &f.At); err != nil {
				return FleetPlan{}, fmt.Errorf("fault: bad shard clause %q (want S@CYCLE): %v", val, err)
			}
			p.ShardFailures = append(p.ShardFailures, f)
		case "flap":
			var f ShardFlap
			if err := scan(val, "%d@%d-%d", &f.Shard, &f.DownAt, &f.UpAt); err != nil {
				return FleetPlan{}, fmt.Errorf("fault: bad flap clause %q (want S@DOWN-UP): %v", val, err)
			}
			p.ShardFlaps = append(p.ShardFlaps, f)
		case "storm":
			var s RankStorm
			if err := scan(val, "%d@%d", &s.Ranks, &s.At); err != nil {
				return FleetPlan{}, fmt.Errorf("fault: bad storm clause %q (want RANKS@CYCLE): %v", val, err)
			}
			p.RankStorms = append(p.RankStorms, s)
		case "swstall":
			var s SwitchStall
			if err := scan(val, "%d+%d", &s.Switch, &s.Cycles); err != nil {
				return FleetPlan{}, fmt.Errorf("fault: bad swstall clause %q (want SWITCH+CYCLES): %v", val, err)
			}
			p.SwitchStalls = append(p.SwitchStalls, s)
		case "rank", "ecc", "stall":
			baseClauses = append(baseClauses, clause)
		default:
			return FleetPlan{}, fmt.Errorf("fault: unknown fleet clause key %q", key)
		}
	}
	base, err := Parse(strings.Join(baseClauses, ";"))
	if err != nil {
		return FleetPlan{}, err
	}
	p.Shard = base
	if err := p.Validate(); err != nil {
		return FleetPlan{}, err
	}
	return p, nil
}
