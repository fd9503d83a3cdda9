// Package serve is the online serving layer: a concurrent embedding-lookup
// front-end over a fafnir System. Its core is a dynamic micro-batching
// coalescer — concurrent requests queue into a shared accumulator that
// flushes a hardware batch when it fills to the engine's BatchCapacity or a
// linger window expires. The flushed batch runs through the engine's
// host-side batch rearrangement (package batch), so *cross-request* duplicate
// indices are read from DRAM once: the paper's per-batch deduplication window
// is extended across users, and measured reads per query drop as concurrency
// rises.
//
// Around the coalescer: per-request deadlines honored via context.Context,
// admission control (a bounded queue that rejects with ErrOverloaded rather
// than queueing unboundedly), graceful drain, and live metrics in Prometheus
// text format (stdlib only).
package serve

import (
	"errors"
	"fmt"
	"time"

	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/header"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// Structured failure modes of the serving layer; match with errors.Is.
var (
	// ErrOverloaded reports that the admission queue is full. HTTP callers
	// see a 503 with Retry-After instead of unbounded queueing latency.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrDraining reports a submission after drain began.
	ErrDraining = errors.New("serve: draining")
)

// Backend runs one embedding-lookup batch with full timing. *fafnir.System
// (the repository's public facade) implements it; tests substitute fakes.
type Backend interface {
	Lookup(b embedding.Batch) (*core.TimedResult, error)
}

// System is the backend surface the HTTP server needs: lookups plus the row
// space for request validation. *fafnir.System implements it.
type System interface {
	Backend
	TotalRows() uint64
}

// MetricsRegistrar is the optional backend capability for publishing its own
// metric families onto the server's /metrics page. The fleet router
// implements it (shard health, failover, and retry families); New resolves
// it by type assertion and passes the server's registry through once.
type MetricsRegistrar interface {
	RegisterMetrics(*telemetry.Registry)
}

// RowSource is the backend capability behind the hot-embedding cache: raw
// access to embedding rows, so the coalescer can admit the rows a flushed
// batch just read. *fafnir.System and *router.Fleet implement it; a backend
// without it cannot host the cache (Config.CacheBytes is rejected).
type RowSource interface {
	// Row returns the raw embedding row at idx.
	Row(idx header.Index) (tensor.Vector, error)
	// Dim reports the embedding dimensionality of every row.
	Dim() int
}

// ShardOwner is the optional capability a sharded backend exposes so the
// cache partitions its byte budget per shard: each owner shard gets an
// independent CLOCK ring, and cached rows are keyed by their owning shard.
// *router.Fleet implements it; a single System caches in one partition.
type ShardOwner interface {
	// Shards reports the fleet width.
	Shards() int
	// OwnerOf reports the shard storing the primary copy of idx.
	OwnerOf(idx header.Index) int
}

// TopologyDescriber is the optional capability a backend exposes so the
// serving CLI's startup line can report the full deployment shape — fleets,
// shards, combine radix — without the CLI reconstructing it from flags.
// *router.Fleet and *router.Federation implement it.
type TopologyDescriber interface {
	// Topology returns a one-line human-readable deployment description.
	Topology() string
}

// Priority is a request's QoS lane. The zero value is the highest lane so
// the constants order by urgency; the wire default is PriorityNormal (see
// ParsePriority).
type Priority int

// The QoS lanes, in scheduling order.
const (
	// PriorityHigh is latency-critical traffic: scheduled first, shed last.
	PriorityHigh Priority = iota
	// PriorityNormal is the wire default: a request that names no priority
	// rides here, and traffic that all rides one lane sees a plain FIFO.
	PriorityNormal
	// PriorityLow is best-effort traffic: shed first once the admission
	// queue passes the low-water mark, scheduled last otherwise.
	PriorityLow
	numLanes
)

// laneNames are the lanes' wire names and metric label values.
var laneNames = [numLanes]string{"high", "normal", "low"}

// String returns the lane's metric label value.
func (p Priority) String() string {
	if p < 0 || p >= numLanes {
		return fmt.Sprintf("Priority(%d)", int(p))
	}
	return laneNames[p]
}

// ParsePriority maps a wire-format priority name to its lane. The empty
// string selects normal, the default lane.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "high":
		return PriorityHigh, nil
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	default:
		return 0, fmt.Errorf("serve: unknown priority %q (want high, normal, or low)", s)
	}
}

// Config parameterizes the serving layer. The zero value of every field
// selects a sensible default; negative values are rejected by Validate with
// an error naming the offending field.
type Config struct {
	// BatchCapacity is the hardware batch size flushes aim for, in queries.
	// It should match the engine's SystemConfig.BatchCapacity so one flush
	// compiles into one hardware batch. Default 32.
	BatchCapacity int
	// Linger is how long the oldest queued query may wait for co-travellers
	// before a partial batch is flushed anyway. Zero flushes as soon as the
	// flusher observes a non-empty queue (lowest latency, least coalescing).
	Linger time.Duration
	// MaxQueued bounds the admission queue in queries; submissions beyond it
	// fail fast with ErrOverloaded. Default 16 x BatchCapacity.
	MaxQueued int
	// DefaultTimeout is the per-request deadline applied to HTTP requests
	// that do not carry their own. Default 2s.
	DefaultTimeout time.Duration
	// MaxQueriesPerRequest bounds one HTTP request's query count (413-style
	// rejection as a 400). Default 4 x BatchCapacity.
	MaxQueriesPerRequest int
	// Tracer, when set, receives request-lifecycle events (enqueue, flush,
	// respond) on the serving timeline. Nil — the default — disables
	// lifecycle tracing at the cost of one pointer check.
	Tracer telemetry.Tracer
	// RetryJitterSeed seeds the deterministic jitter applied to the 503
	// Retry-After header under overload, spreading client retries over a
	// small window instead of synchronizing them into a thundering herd.
	// Equal seeds give equal jitter sequences; zero selects seed 1.
	RetryJitterSeed uint64
	// CacheBytes is the host-side hot-embedding cache budget in bytes.
	// Zero — the default — disables the cache entirely; when positive the
	// backend must implement RowSource or NewCoalescer fails. With a
	// sharded backend (ShardOwner) the budget is split evenly per shard.
	CacheBytes int64
	// CacheSeed seeds the cache's deterministic CLOCK eviction (the hand's
	// starting slot). Equal seeds and equal traffic give bit-identical
	// cache contents; zero selects seed 1.
	CacheSeed uint64
	// ShedLowWater is the fraction of MaxQueued above which PriorityLow
	// submissions are shed. High and normal traffic is only rejected at the
	// full MaxQueued bound. Default 0.5.
	ShedLowWater float64
	// DeadlineSlack is the lane-escape threshold: a lower-priority request
	// whose deadline slack has shrunk below this is scheduled ahead of
	// healthier higher-priority work, bounding starvation. Default 1ms.
	DeadlineSlack time.Duration
	// SLOWindow is the flight recorder's rolling accounting window for
	// good/bad request counts and burn rates. Default 60s.
	SLOWindow time.Duration
	// SLOObjectives maps each QoS lane to its wall-clock latency objective;
	// a request is good when it succeeds undegraded within its lane's
	// objective. Lanes absent from the map get the defaults: high 50ms,
	// normal 250ms, low 1s.
	SLOObjectives map[Priority]time.Duration
	// SLOBudget is the error-budget fraction the burn-rate gauge normalizes
	// by: burn rate 1.0 means bad requests arrive at exactly the budgeted
	// fraction. Default 0.01 (99% of requests good).
	SLOBudget float64
	// SLOK bounds the flight recorder's slowest/degraded request rings.
	// Default 16.
	SLOK int
}

func (c *Config) fillDefaults() {
	if c.BatchCapacity == 0 {
		c.BatchCapacity = 32
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 16 * c.BatchCapacity
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxQueriesPerRequest == 0 {
		c.MaxQueriesPerRequest = 4 * c.BatchCapacity
	}
	if c.RetryJitterSeed == 0 {
		c.RetryJitterSeed = 1
	}
	if c.CacheSeed == 0 {
		c.CacheSeed = 1
	}
	if c.ShedLowWater == 0 {
		c.ShedLowWater = 0.5
	}
	if c.DeadlineSlack == 0 {
		c.DeadlineSlack = time.Millisecond
	}
	if c.SLOWindow == 0 {
		c.SLOWindow = time.Minute
	}
	if c.SLOBudget == 0 {
		c.SLOBudget = 0.01
	}
	if c.SLOK == 0 {
		c.SLOK = 16
	}
	defaults := map[Priority]time.Duration{
		PriorityHigh:   50 * time.Millisecond,
		PriorityNormal: 250 * time.Millisecond,
		PriorityLow:    time.Second,
	}
	if c.SLOObjectives == nil {
		c.SLOObjectives = defaults
	} else {
		for p, d := range defaults {
			if c.SLOObjectives[p] == 0 {
				c.SLOObjectives[p] = d
			}
		}
	}
}

// Validate reports a descriptive error naming the offending field and value
// for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.BatchCapacity < 0:
		return fmt.Errorf("serve: Config.BatchCapacity = %d: must be positive (or 0 for the default of 32)", c.BatchCapacity)
	case c.Linger < 0:
		return fmt.Errorf("serve: Config.Linger = %v: must be non-negative", c.Linger)
	case c.MaxQueued < 0:
		return fmt.Errorf("serve: Config.MaxQueued = %d: must be positive (or 0 for the default of 16 x BatchCapacity)", c.MaxQueued)
	case c.DefaultTimeout < 0:
		return fmt.Errorf("serve: Config.DefaultTimeout = %v: must be non-negative", c.DefaultTimeout)
	case c.MaxQueriesPerRequest < 0:
		return fmt.Errorf("serve: Config.MaxQueriesPerRequest = %d: must be positive (or 0 for the default of 4 x BatchCapacity)", c.MaxQueriesPerRequest)
	case c.CacheBytes < 0:
		return fmt.Errorf("serve: Config.CacheBytes = %d: must be non-negative (0 disables the cache)", c.CacheBytes)
	case c.ShedLowWater < 0 || c.ShedLowWater > 1:
		return fmt.Errorf("serve: Config.ShedLowWater = %v: must be in [0, 1] (or 0 for the default of 0.5)", c.ShedLowWater)
	case c.DeadlineSlack < 0:
		return fmt.Errorf("serve: Config.DeadlineSlack = %v: must be non-negative", c.DeadlineSlack)
	case c.SLOWindow < 0:
		return fmt.Errorf("serve: Config.SLOWindow = %v: must be non-negative (0 selects the 60s default)", c.SLOWindow)
	case c.SLOBudget < 0 || c.SLOBudget > 1:
		return fmt.Errorf("serve: Config.SLOBudget = %v: must be in [0, 1] (0 selects the 0.01 default)", c.SLOBudget)
	case c.SLOK < 0:
		return fmt.Errorf("serve: Config.SLOK = %d: must be non-negative (0 selects the default of 16)", c.SLOK)
	}
	return nil
}
