package serve

import (
	"fmt"
	"io"
	"time"

	"fafnir/internal/telemetry"
)

// Outcome classifies how one request terminated, for the requests_total
// metric's outcome label.
type Outcome int

// The terminal request classifications.
const (
	OutcomeOK Outcome = iota
	OutcomeBadRequest
	OutcomeOverload
	OutcomeDraining
	OutcomeDeadline
	OutcomeError
	// OutcomeDegraded is a 200 response whose batch absorbed faults: the
	// outputs are valid but possibly partial, and the response body carries
	// a degraded report itemizing what was lost or failed over.
	OutcomeDegraded
	numOutcomes
)

// String returns the outcome's metric label value.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeBadRequest:
		return "bad_request"
	case OutcomeOverload:
		return "overload"
	case OutcomeDraining:
		return "draining"
	case OutcomeDeadline:
		return "deadline"
	case OutcomeError:
		return "error"
	case OutcomeDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Metrics is the serving layer's live instrumentation, built on the shared
// telemetry.Registry: every family below registers into one registry whose
// Render emits the whole set in Prometheus text format, byte-compatible with
// the hand-rolled renderer this replaced. All fields are safe for concurrent
// use.
type Metrics struct {
	reg *telemetry.Registry

	// Requests counts terminated HTTP requests by outcome; index with
	// Requests.At(int(outcome)).
	Requests *telemetry.CounterVec
	// Queries counts queries served through flushed batches.
	Queries *telemetry.Counter
	// Batches counts flushed hardware batches.
	Batches *telemetry.Counter
	// CoalescedRequests counts requests that shared their batch with at
	// least one other request.
	CoalescedRequests *telemetry.Counter
	// IsolationRetries counts shared batches that failed and were re-run
	// per request to confine the error to the offending caller.
	IsolationRetries *telemetry.Counter
	// DegradedResponses counts 200 responses that rode a degraded batch;
	// DegradedBatches counts the flushed batches themselves.
	DegradedResponses *telemetry.Counter
	DegradedBatches   *telemetry.Counter
	// ExpiredInQueue counts requests whose context ended while they were
	// queued, so they were dropped before reaching the backend.
	ExpiredInQueue *telemetry.Counter
	// DRAMReads accumulates simulated DRAM vector reads after cross-request
	// deduplication; NaiveReads is what the same traffic would have read
	// without it.
	DRAMReads  *telemetry.Counter
	NaiveReads *telemetry.Counter
	// BytesRead accumulates simulated DRAM traffic.
	BytesRead *telemetry.Counter
	// SimCycles accumulates simulated batch latency (PE clock).
	SimCycles *telemetry.Counter
	// QueueDepth is the instantaneous admission-queue depth in queries.
	QueueDepth *telemetry.Gauge
	// RequestSeconds is the wall-clock request latency histogram.
	RequestSeconds *telemetry.Histogram
	// BatchQueries is the queries-per-flushed-batch histogram (the
	// coalescing shape).
	BatchQueries *telemetry.Histogram

	// PEReduces and PECompares accumulate the reduction tree's per-batch
	// action counts, attributing simulated cycles to tree work.
	PEReduces  *telemetry.Counter
	PECompares *telemetry.Counter
	// RowHits/RowMisses/RowConflicts mirror the memory model's row-buffer
	// outcome counters, delta-folded per flush by the coalescer when the
	// backend exposes them (see MemoryStatsSource).
	RowHits      *telemetry.Counter
	RowMisses    *telemetry.Counter
	RowConflicts *telemetry.Counter

	// CacheHits/CacheMisses count hot-embedding cache consultations at
	// batch build time; CacheEvictions counts CLOCK evictions and
	// CacheBytes accumulates bytes admitted (slot-sized, cumulative —
	// CacheResident is the instantaneous footprint).
	CacheHits      *telemetry.Counter
	CacheMisses    *telemetry.Counter
	CacheEvictions *telemetry.Counter
	CacheBytes     *telemetry.Counter
	CacheResident  *telemetry.Gauge
	// Shed counts submissions rejected by QoS admission control, by lane;
	// index with Shed.At(int(priority)).
	Shed *telemetry.CounterVec
	// StageSeconds attributes per-request latency to pipeline stages (the
	// Breakdown stages): measured wall seconds for the host-side queue/
	// coalesce/cache/backend stages, derived seconds (simulated cycles at
	// 200 MHz) for combine and transfer. Index with StageSeconds.At(stage*).
	StageSeconds *telemetry.HistogramVec
}

// The latency-attribution stages, in StageSeconds label order.
const (
	stageQueue = iota
	stageCoalesce
	stageCache
	stageBackend
	stageCombine
	stageTransfer
	numStages
)

var stageNames = [numStages]string{"queue", "coalesce", "cache", "backend", "combine", "transfer"}

// requestBuckets are the wall-clock latency bounds in seconds. The three
// sub-millisecond buckets exist because a coalesced in-memory lookup
// routinely completes in tens of microseconds — with 100 µs as the lowest
// bound the common case was invisible.
var requestBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewMetrics builds an empty metrics set over a fresh registry.
func NewMetrics() *Metrics {
	reg := telemetry.NewRegistry()
	m := &Metrics{reg: reg}
	outcomes := make([]string, numOutcomes)
	for o := Outcome(0); o < numOutcomes; o++ {
		outcomes[o] = o.String()
	}
	m.Requests = reg.CounterVec("fafnir_serve_requests_total", "Terminated lookup requests by outcome.", "outcome", outcomes...)
	m.Queries = reg.Counter("fafnir_serve_queries_total", "Queries served through flushed batches.")
	m.Batches = reg.Counter("fafnir_serve_batches_total", "Hardware batches flushed through the engine.")
	m.CoalescedRequests = reg.Counter("fafnir_serve_coalesced_requests_total", "Requests that shared their batch with another request.")
	m.IsolationRetries = reg.Counter("fafnir_serve_isolation_retries_total", "Failed shared batches re-run per request to confine the error.")
	m.DegradedResponses = reg.Counter("fafnir_serve_degraded_total", "Successful responses served from a degraded (fault-absorbing) batch.")
	m.DegradedBatches = reg.Counter("fafnir_serve_degraded_batches_total", "Flushed batches whose backend absorbed faults while serving them.")
	m.ExpiredInQueue = reg.Counter("fafnir_serve_expired_in_queue_total", "Requests whose deadline passed before delivery.")
	m.DRAMReads = reg.Counter("fafnir_serve_dram_reads_total", "Simulated DRAM vector reads after cross-request deduplication.")
	m.NaiveReads = reg.Counter("fafnir_serve_naive_reads_total", "DRAM vector reads the same traffic would issue without deduplication.")
	m.BytesRead = reg.Counter("fafnir_serve_bytes_read_total", "Simulated DRAM traffic in bytes.")
	m.SimCycles = reg.Counter("fafnir_serve_sim_cycles_total", "Simulated batch latency in PE-clock cycles, summed over batches.")
	m.QueueDepth = reg.Gauge("fafnir_serve_queue_depth", "Instantaneous admission-queue depth in queries.")
	reg.GaugeFunc("fafnir_serve_reads_per_query", "Measured DRAM reads per served query.", m.ReadsPerQuery)
	reg.GaugeFunc("fafnir_serve_coalesce_factor", "Mean queries per flushed batch.", m.CoalesceFactor)
	m.RequestSeconds = reg.Histogram("fafnir_serve_request_seconds", "Wall-clock request latency.", requestBuckets)
	m.BatchQueries = reg.Histogram("fafnir_serve_batch_queries", "Queries per flushed hardware batch.", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	m.PEReduces = reg.Counter("fafnir_serve_pe_reduces_total", "PE reduce actions across flushed batches.")
	m.PECompares = reg.Counter("fafnir_serve_pe_compares_total", "PE header comparisons across flushed batches.")
	m.RowHits = reg.Counter("fafnir_serve_row_hits_total", "DRAM row-buffer hits attributed to flushed batches.")
	m.RowMisses = reg.Counter("fafnir_serve_row_misses_total", "DRAM row-buffer misses attributed to flushed batches.")
	m.RowConflicts = reg.Counter("fafnir_serve_row_conflicts_total", "DRAM row-buffer conflicts attributed to flushed batches.")
	m.CacheHits = reg.Counter("fafnir_cache_hits_total", "Hot-embedding cache hits at batch build time.")
	m.CacheMisses = reg.Counter("fafnir_cache_misses_total", "Hot-embedding cache misses at batch build time.")
	m.CacheEvictions = reg.Counter("fafnir_cache_evictions_total", "Hot-embedding cache CLOCK evictions.")
	m.CacheBytes = reg.Counter("fafnir_cache_bytes_total", "Cumulative bytes admitted into the hot-embedding cache.")
	m.CacheResident = reg.Gauge("fafnir_cache_resident_bytes", "Instantaneous hot-embedding cache footprint in bytes.")
	m.Shed = reg.CounterVec("fafnir_serve_shed_total", "Submissions rejected by QoS admission control, by lane.", "lane", laneNames[:]...)
	m.StageSeconds = reg.HistogramVec("fafnir_serve_stage_seconds", "Per-request latency attribution by pipeline stage.", "stage", requestBuckets, stageNames[:]...)
	return m
}

// observeStages folds one delivered request's latency attribution into the
// per-stage histograms.
func (m *Metrics) observeStages(bd *Breakdown) {
	m.StageSeconds.At(stageQueue).Observe(bd.Queue.WallUS / 1e6)
	m.StageSeconds.At(stageCoalesce).Observe(bd.Coalesce.WallUS / 1e6)
	m.StageSeconds.At(stageCache).Observe(bd.Cache.WallUS / 1e6)
	m.StageSeconds.At(stageBackend).Observe(bd.Backend.WallUS / 1e6)
	m.StageSeconds.At(stageCombine).Observe(bd.Combine.WallUS / 1e6)
	m.StageSeconds.At(stageTransfer).Observe(bd.Transfer.WallUS / 1e6)
}

// Registry returns the registry backing the metrics set; embedders may
// register additional families onto the same /metrics endpoint.
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// ObserveRequest records one terminated HTTP request.
func (m *Metrics) ObserveRequest(o Outcome, d time.Duration) {
	if o < 0 || o >= numOutcomes {
		o = OutcomeError
	}
	m.Requests.At(int(o)).Add(1)
	m.RequestSeconds.Observe(d.Seconds())
}

// observeBatch folds one flushed batch into the aggregate counters.
func (m *Metrics) observeBatch(st BatchStats) {
	m.Batches.Add(1)
	if st.Degraded != nil {
		m.DegradedBatches.Add(1)
	}
	m.Queries.Add(uint64(st.BatchQueries))
	if st.Requests >= 2 {
		m.CoalescedRequests.Add(uint64(st.Requests))
	}
	m.DRAMReads.Add(uint64(st.MemoryReads))
	m.NaiveReads.Add(uint64(st.NaiveReads))
	m.BytesRead.Add(st.BytesRead)
	m.SimCycles.Add(uint64(st.TotalCycles))
	m.PEReduces.Add(uint64(st.Reduces))
	m.PECompares.Add(uint64(st.Compares))
	m.BatchQueries.Observe(float64(st.BatchQueries))
}

// ReadsPerQuery reports the measured DRAM reads per served query — the
// serving layer's headline number, which drops below the single-request
// baseline as concurrent requests share batches.
func (m *Metrics) ReadsPerQuery() float64 {
	q := m.Queries.Value()
	if q == 0 {
		return 0
	}
	return float64(m.DRAMReads.Value()) / float64(q)
}

// CoalesceFactor reports the mean queries per flushed batch.
func (m *Metrics) CoalesceFactor() float64 {
	b := m.Batches.Value()
	if b == 0 {
		return 0
	}
	return float64(m.Queries.Value()) / float64(b)
}

// Render writes every metric in Prometheus text exposition format.
func (m *Metrics) Render(w io.Writer) { m.reg.Render(w) }
