package router

import (
	"fafnir/internal/sim"
)

// State is one shard's health as seen by the router's breaker.
type State int

// The breaker's three states. A shard moves healthy → suspect on its first
// structured failure, suspect → dark when failures reach failureThreshold, and
// dark → healthy only through a successful probe lookup after its reopen
// backoff elapses on the fleet clock.
const (
	// Healthy shards receive their sub-lookups directly.
	Healthy State = iota
	// Suspect shards have failed recently but are still dispatched; one more
	// failure within failureThreshold trips them dark, one success clears them.
	Suspect
	// Dark shards are skipped entirely — their traffic goes straight to the
	// replica shard — until a probe succeeds.
	Dark
)

// String returns the state's wire/metric label.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dark:
		return "dark"
	default:
		return "unknown"
	}
}

// breaker is the per-shard health state machine. All transitions happen on
// the router's single-caller path and are driven exclusively by structured
// sub-lookup results and the deterministic fleet clock, so two replays of the
// same workload trip, probe, and reopen identically.
type breaker struct {
	state    State
	failures int       // consecutive structured failures while not dark
	attempts int       // consecutive failed probes since going dark
	reopenAt sim.Cycle // fleet cycle at which the next probe may run
	darkAt   sim.Cycle // fleet cycle of the last healthy→dark trip

	base sim.Cycle // first reopen backoff
	cap  sim.Cycle // backoff ceiling
	seed uint64    // jitter seed (mixed per shard by the router)
}

// failureThreshold is how many consecutive structured failures trip a shard
// dark (the first failure always marks it suspect).
const failureThreshold = 2

// splitmix64 is the deterministic jitter hash, the same finalizer the fault
// injector and embedding store use.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoff returns the reopen delay before probe attempt (1-based):
// exponential doubling from the base, capped, plus a seeded jitter of up to a
// quarter of the base so simultaneously-tripped shards do not probe in
// lockstep.
func (b *breaker) backoff(attempt int) sim.Cycle {
	d := b.base
	for i := 1; i < attempt && d < b.cap; i++ {
		d *= 2
	}
	if d > b.cap {
		d = b.cap
	}
	jitterSpan := uint64(b.base/4) + 1
	return d + sim.Cycle(splitmix64(b.seed^uint64(attempt))%jitterSpan)
}

// onSuccess records a successful sub-lookup or probe and reopens the shard.
func (b *breaker) onSuccess() {
	b.state = Healthy
	b.failures = 0
	b.attempts = 0
	b.reopenAt = 0
}

// onFailure records a structured sub-lookup failure at fleet cycle now and
// reports whether this transition tripped the shard dark.
func (b *breaker) onFailure(now sim.Cycle) (tripped bool) {
	if b.state == Dark {
		return false
	}
	b.failures++
	if b.failures >= failureThreshold {
		b.state = Dark
		b.darkAt = now
		b.attempts = 0
		b.reopenAt = now + b.backoff(1)
		return true
	}
	b.state = Suspect
	return false
}

// onProbeFailure records a failed probe of a dark shard: the shard stays
// dark and the reopen backoff grows (capped, jittered).
func (b *breaker) onProbeFailure(now sim.Cycle) {
	b.attempts++
	b.reopenAt = now + b.backoff(b.attempts+1)
}

// probeDue reports whether a dark shard's reopen backoff has elapsed.
func (b *breaker) probeDue(now sim.Cycle) bool {
	return b.state == Dark && now >= b.reopenAt
}
