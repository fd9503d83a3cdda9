// Package fault is the deterministic fault-injection framework threaded
// through the memory model, the Fafnir engine, and the host batch layer.
//
// Three fault classes are modelled, each attachable to a run as part of a
// Plan:
//
//   - rank failures: a memory rank goes dark at a scheduled cycle and stays
//     dark (a dead DIMM, a failed buffer chip). Reads that would land on a
//     dark rank must be remapped to a replica placement by the host, or the
//     run fails with ErrRankFailed.
//   - transient read faults: a returned vector is flagged corrupt, modelling
//     an ECC-detected (but uncorrectable in-line) error. The host retries
//     the read with capped exponential backoff, charging the extra cycles to
//     the simulated clock; when every attempt faults the run fails with
//     ErrRetriesExhausted.
//   - PE stalls: a tree node's pipeline latency spikes by a fixed number of
//     cycles (a slow clock domain crossing, a congested link). Stalls only
//     perturb timing, never values.
//
// Everything is seed-driven and deterministic: two runs with the same Plan
// observe exactly the same faults, which keeps degraded-mode experiments
// reproducible and lets tests assert bit-identical outputs.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"fafnir/internal/sim"
)

// Structured failure modes engines report instead of panicking. Callers
// match them with errors.Is.
var (
	// ErrRankFailed reports a read addressed to a dark rank with no live
	// replica to remap to.
	ErrRankFailed = errors.New("fault: rank failed")
	// ErrInvariantViolated reports a broken conservation invariant in the
	// reduction tree (header accounting no longer covers the batch).
	ErrInvariantViolated = errors.New("fault: invariant violated")
	// ErrRetriesExhausted reports a read whose every retry attempt came back
	// corrupt.
	ErrRetriesExhausted = errors.New("fault: retries exhausted")
)

// RankFailure schedules one rank going dark. The rank stays dark from cycle
// At (memory-clock domain) onward.
type RankFailure struct {
	// Rank is the global rank identifier.
	Rank int
	// At is the first memory-clock cycle at which the rank is dark.
	At sim.MemCycle
}

// PEStall schedules a latency spike on one tree node.
type PEStall struct {
	// PE is the tree node identifier (PENode.ID).
	PE int
	// Extra is the additional PE-clock cycles charged per traversal of the
	// stalled node.
	Extra sim.Cycle
}

// Plan is a complete, serializable fault schedule. The zero value injects
// nothing and is exactly the fault-free run.
type Plan struct {
	// Seed drives the transient-fault draw. Two plans with equal seeds and
	// probabilities observe identical fault patterns.
	Seed uint64
	// RankFailures lists ranks that go dark.
	RankFailures []RankFailure
	// ReadFaultProb is the probability in [0,1) that one vector read returns
	// corrupt (ECC-flagged) data. Each retry attempt redraws.
	ReadFaultProb float64
	// MaxConsecutiveFaults caps how many times in a row one read can fault,
	// bounding the retry storm so a positive ReadFaultProb cannot wedge a
	// run. Zero selects DefaultMaxConsecutiveFaults.
	MaxConsecutiveFaults int
	// MaxRetries is the host retry budget per read. Zero selects
	// DefaultMaxRetries.
	MaxRetries int
	// RetryBackoff is the base backoff in memory-clock cycles before the
	// first retry; successive retries double it (capped at 8x). Zero selects
	// DefaultRetryBackoff.
	RetryBackoff sim.MemCycle
	// PEStalls lists tree nodes with spiked latency.
	PEStalls []PEStall
}

// Defaults for the retry policy, chosen so a handful of transient faults
// costs visible but bounded cycles.
const (
	DefaultMaxConsecutiveFaults = 3
	DefaultMaxRetries           = 5
	DefaultRetryBackoff         = sim.MemCycle(64)
)

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return len(p.RankFailures) == 0 && p.ReadFaultProb == 0 && len(p.PEStalls) == 0
}

// Validate reports a descriptive error for an unusable plan.
func (p Plan) Validate() error {
	switch {
	case !(p.ReadFaultProb >= 0 && p.ReadFaultProb < 1): // also rejects NaN
		return fmt.Errorf("fault: ReadFaultProb %v outside [0,1)", p.ReadFaultProb)
	case p.MaxConsecutiveFaults < 0:
		return fmt.Errorf("fault: MaxConsecutiveFaults must be non-negative, got %d", p.MaxConsecutiveFaults)
	case p.MaxRetries < 0:
		return fmt.Errorf("fault: MaxRetries must be non-negative, got %d", p.MaxRetries)
	}
	for _, f := range p.RankFailures {
		if f.Rank < 0 {
			return fmt.Errorf("fault: rank failure on negative rank %d", f.Rank)
		}
	}
	for _, s := range p.PEStalls {
		if s.PE < 0 {
			return fmt.Errorf("fault: PE stall on negative PE %d", s.PE)
		}
	}
	return nil
}

// maxConsecutive resolves the consecutive-fault cap.
func (p Plan) maxConsecutive() int {
	if p.MaxConsecutiveFaults == 0 {
		return DefaultMaxConsecutiveFaults
	}
	return p.MaxConsecutiveFaults
}

// Retries resolves the host retry budget.
func (p Plan) Retries() int {
	if p.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	return p.MaxRetries
}

// Backoff resolves the base retry backoff.
func (p Plan) Backoff() sim.MemCycle {
	if p.RetryBackoff == 0 {
		return DefaultRetryBackoff
	}
	return p.RetryBackoff
}

// BackoffAt reports the memory-clock backoff charged before retry attempt
// (1-based): exponential doubling from the base, capped at 8x.
func (p Plan) BackoffAt(attempt int) sim.MemCycle {
	base := p.Backoff()
	b := base
	for i := 1; i < attempt && b < 8*base; i++ {
		b *= 2
	}
	if b > 8*base {
		b = 8 * base
	}
	return b
}

// Injector is a compiled plan: deterministic fault decisions for one run.
// It is not safe for concurrent use (simulations are single-goroutine).
type Injector struct {
	plan     Plan
	darkAt   map[int]sim.MemCycle // rank -> first dark memory cycle
	stallBy  map[int]sim.Cycle    // PE id -> extra PE cycles
	probBits uint64               // ReadFaultProb scaled to a 63-bit threshold
	draws    uint64               // sequence number of transient-fault draws
	streak   int                  // consecutive faults drawn
}

// NewInjector compiles a plan. numRanks bounds the rank identifiers; a plan
// naming a rank or probability out of range is rejected here rather than
// mid-simulation.
func NewInjector(p Plan, numRanks int) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		plan:    p,
		darkAt:  make(map[int]sim.MemCycle, len(p.RankFailures)),
		stallBy: make(map[int]sim.Cycle, len(p.PEStalls)),
	}
	for _, f := range p.RankFailures {
		if f.Rank >= numRanks {
			return nil, fmt.Errorf("fault: rank failure on rank %d outside [0,%d)", f.Rank, numRanks)
		}
		if at, ok := inj.darkAt[f.Rank]; !ok || f.At < at {
			inj.darkAt[f.Rank] = f.At
		}
	}
	for _, s := range p.PEStalls {
		inj.stallBy[s.PE] += s.Extra
	}
	if p.ReadFaultProb > 0 {
		inj.probBits = uint64(p.ReadFaultProb * float64(1<<63))
	}
	return inj, nil
}

// Plan returns the compiled plan.
func (i *Injector) Plan() Plan { return i.plan }

// Active reports whether the injector can ever fire.
func (i *Injector) Active() bool { return i != nil && !i.plan.Empty() }

// RankFailed reports whether global rank r is dark at memory cycle now.
func (i *Injector) RankFailed(r int, now sim.MemCycle) bool {
	if i == nil {
		return false
	}
	at, ok := i.darkAt[r]
	return ok && now >= at
}

// FailedRanks lists the ranks dark at memory cycle now, sorted.
func (i *Injector) FailedRanks(now sim.MemCycle) []int {
	if i == nil {
		return nil
	}
	var out []int
	for r, at := range i.darkAt {
		if now >= at {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// splitmix64 is the deterministic draw hash (Vigna's SplitMix64 finalizer),
// the same generator family the embedding store uses for its contents.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ReadFault draws whether the next vector read attempt comes back corrupt.
// Draws are sequenced, so the pattern depends only on the plan seed and the
// order of reads — deterministic for a deterministic engine. The consecutive
// cap guarantees forward progress: after MaxConsecutiveFaults faulty draws in
// a row the next draw is forced clean.
func (i *Injector) ReadFault() bool {
	if i == nil || i.probBits == 0 {
		return false
	}
	seq := i.draws
	i.draws++
	if i.streak >= i.plan.maxConsecutive() {
		i.streak = 0
		return false
	}
	faulty := splitmix64(i.plan.Seed^(seq*0x9e3779b97f4a7c15))>>1 < i.probBits
	if faulty {
		i.streak++
	} else {
		i.streak = 0
	}
	return faulty
}

// PEStall reports the extra PE-clock cycles charged per traversal of PE id.
func (i *Injector) PEStall(id int) sim.Cycle {
	if i == nil {
		return 0
	}
	return i.stallBy[id]
}

// scan parses one clause value with fmt.Sscanf and rejects anything left
// over after the last verb. Sscanf alone stops at the first byte that does
// not match, so "3@5xyz" would silently parse as 3@5.
func scan(val, format string, args ...any) error {
	var extra rune
	n, err := fmt.Sscanf(val, format+"%c", append(args, &extra)...)
	switch {
	case n == len(args):
		return nil // only the sentinel verb ran out of input
	case n > len(args):
		return fmt.Errorf("unexpected input from %q on", extra)
	default:
		return err
	}
}

// String renders the plan compactly (the Parse format).
func (p Plan) String() string {
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, f := range p.RankFailures {
		parts = append(parts, fmt.Sprintf("rank=%d@%d", f.Rank, f.At))
	}
	if p.ReadFaultProb > 0 {
		parts = append(parts, fmt.Sprintf("ecc=%g", p.ReadFaultProb))
	}
	for _, s := range p.PEStalls {
		parts = append(parts, fmt.Sprintf("stall=%d+%d", s.PE, s.Extra))
	}
	return strings.Join(parts, ";")
}

// Parse builds a plan from a compact spec, the format of fafnir-sim's
// -faults flag: semicolon-separated clauses of
//
//	seed=N         transient-fault seed
//	rank=R@C       rank R goes dark at memory cycle C (the memory's clock)
//	ecc=P          each vector read faults with probability P (0 <= P < 1)
//	stall=PE+N     tree node PE gains N extra PE cycles per traversal
//
// e.g. "rank=3@0;ecc=0.001;stall=5+200;seed=9". An empty spec is the empty
// plan.
func Parse(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		switch key {
		case "seed":
			if err := scan(val, "%d", &p.Seed); err != nil {
				return Plan{}, fmt.Errorf("fault: bad seed %q: %v", val, err)
			}
		case "rank":
			var f RankFailure
			if err := scan(val, "%d@%d", &f.Rank, &f.At); err != nil {
				return Plan{}, fmt.Errorf("fault: bad rank clause %q (want R@CYCLE): %v", val, err)
			}
			p.RankFailures = append(p.RankFailures, f)
		case "ecc":
			if err := scan(val, "%g", &p.ReadFaultProb); err != nil {
				return Plan{}, fmt.Errorf("fault: bad ecc probability %q: %v", val, err)
			}
		case "stall":
			var s PEStall
			if err := scan(val, "%d+%d", &s.PE, &s.Extra); err != nil {
				return Plan{}, fmt.Errorf("fault: bad stall clause %q (want PE+CYCLES): %v", val, err)
			}
			p.PEStalls = append(p.PEStalls, s)
		default:
			return Plan{}, fmt.Errorf("fault: unknown clause key %q", key)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}
