// Package fafnir is the public API of the FAFNIR reproduction: a
// near-memory intelligent reduction tree for sparse gathering (HPCA 2021),
// together with the DDR4 memory model, workload generators, and baseline
// accelerators (TensorDIMM, RecNMP, Two-Step, and a no-NDP host) needed to
// reproduce the paper's evaluation.
//
// The quickest path is System:
//
//	sys, err := fafnir.NewSystem(fafnir.SystemConfig{})
//	batch, err := sys.GenerateBatch(32, 1)
//	res, err := sys.Lookup(batch)
//	fmt.Println(res.Outputs[0], res.TotalCycles)
//
// System bundles the paper's default configuration — a 4-channel, 32-rank
// DDR4 memory holding 32 embedding tables of 512 B vectors, and a 31-PE
// Fafnir tree at 200 MHz — and exposes timed embedding lookup and SpMV.
// Lower-level control (custom trees, baseline engines, raw PE semantics)
// lives in the internal packages and is re-exported selectively here.
package fafnir

import (
	"fmt"
	"io"
	"math"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/memmap"
	"fafnir/internal/rnet"
	"fafnir/internal/router"
	"fafnir/internal/serve"
	"fafnir/internal/sim"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
	"fafnir/internal/twostep"
)

// Telemetry layer (internal/telemetry), re-exported: the cycle-level event
// tracer whose streams load directly into Perfetto, and the typed metrics
// registry behind the serving layer's /metrics endpoint.
type (
	// Tracer receives trace events; attach one with System.AttachTracer.
	Tracer = telemetry.Tracer
	// Trace is the standard in-memory Tracer with Chrome trace-event JSON
	// export (WriteChromeFile for Perfetto, ChromeJSON for embedding).
	Trace = telemetry.Trace
	// TraceEvent is one trace record.
	TraceEvent = telemetry.Event
	// MetricsRegistry is the typed counter/gauge/histogram registry.
	MetricsRegistry = telemetry.Registry
	// Logger is the small shared leveled logger the CLIs print through
	// (text mode is byte-compatible with fmt.Printf; json mode wraps each
	// line in a {"ts","level","msg"} object).
	Logger = telemetry.Logger
	// SLOConfig parameterizes the serving layer's SLO flight recorder:
	// rolling window, per-lane latency objectives, error-budget fraction,
	// and the slowest/degraded-request ring bound K.
	SLOConfig = telemetry.SLOConfig
	// SLOSnapshot is the flight-recorder state served on /debug/slo.
	SLOSnapshot = telemetry.SLOSnapshot
	// StageCycles is the exact per-stage latency attribution every timed
	// lookup carries (LookupResult.Stages); the stages sum to TotalCycles.
	StageCycles = core.StageCycles
)

// NewLogger builds a leveled logger writing to w in the given format
// ("text" or "json").
func NewLogger(w io.Writer, format string) (*Logger, error) { return telemetry.NewLogger(w, format) }

// NewTrace returns an empty trace collector, ready to attach.
func NewTrace() *Trace { return telemetry.NewTrace() }

// ValidateTrace checks that data is well-formed, Perfetto-loadable Chrome
// trace-event JSON with monotonic per-lane timestamps, returning the number
// of non-metadata events.
func ValidateTrace(data []byte) (int, error) { return telemetry.ValidateChrome(data) }

// Re-exported leaf types, so callers do not need the internal import paths.
type (
	// Vector is a dense FP32 embedding vector.
	Vector = tensor.Vector
	// ReduceOp is the pooling operation applied through the tree.
	ReduceOp = tensor.ReduceOp
	// Batch is a set of embedding-lookup queries.
	Batch = embedding.Batch
	// Query is one lookup: a set of indices reduced into one vector.
	Query = embedding.Query
	// Matrix is a sparse matrix in the streaming LIL format.
	Matrix = sparse.LIL
	// LookupResult is a timed embedding-lookup outcome.
	LookupResult = core.TimedResult
	// SpMVResult is a timed SpMV outcome.
	SpMVResult = spmv.Result
	// FaultPlan is a deterministic fault-injection schedule attachable to a
	// System via SystemConfig.Faults. The zero value injects nothing.
	FaultPlan = fault.Plan
	// RankFailure schedules one memory rank going dark.
	RankFailure = fault.RankFailure
	// PEStallFault schedules a latency spike on one tree node.
	PEStallFault = fault.PEStall
	// DegradedReport quantifies the graceful-degradation work of a
	// fault-injected lookup (LookupResult.Degraded).
	DegradedReport = core.DegradedReport
)

// Structured failure modes of fault-injected runs; match with errors.Is.
var (
	// ErrRankFailed reports a read on a dark rank with no live replica.
	ErrRankFailed = fault.ErrRankFailed
	// ErrInvariantViolated reports broken reduction-tree header accounting.
	ErrInvariantViolated = fault.ErrInvariantViolated
	// ErrRetriesExhausted reports a read whose every retry came back corrupt.
	ErrRetriesExhausted = fault.ErrRetriesExhausted
)

// ParseFaultPlan builds a FaultPlan from the compact spec format of
// fafnir-sim's -faults flag, e.g. "rank=3@0;ecc=0.001;stall=5+200;seed=9".
func ParseFaultPlan(spec string) (FaultPlan, error) { return fault.Parse(spec) }

// Pooling operations.
const (
	OpSum  = tensor.OpSum
	OpMin  = tensor.OpMin
	OpMax  = tensor.OpMax
	OpMean = tensor.OpMean
)

// SystemConfig selects the simulated system's shape. Zero values mean the
// paper's defaults.
type SystemConfig struct {
	// Ranks is the number of memory ranks (default 32; must divide evenly
	// into the DDR4 geometry: 8 ranks per channel).
	Ranks int
	// RowsPerTable is the number of 512 B vectors per embedding table
	// (default 128 Ki across 32 tables).
	RowsPerTable int
	// BatchCapacity is the hardware batch size B (default 32).
	BatchCapacity int
	// ZipfS is the index-popularity skew for GenerateBatch (default 1.3;
	// values <= 1 draw uniformly).
	ZipfS float64
	// QuerySize is the indices per generated query (default 16).
	QuerySize int
	// Seed makes table contents and workloads deterministic (default 1).
	Seed int64
	// Dedup controls whether Lookup eliminates redundant accesses
	// (default true; set DisableDedup to turn off).
	DisableDedup bool
	// Faults attaches a deterministic fault-injection schedule. The zero
	// plan injects nothing and leaves every run bit-identical to a system
	// built without it.
	Faults FaultPlan
	// Parallelism is how many hardware batches of one lookup are computed
	// at once (a lookup of a single hardware batch runs on the caller's
	// goroutine at every setting). It changes wall-clock speed only:
	// outputs, statistics, and cycle counts are bit-identical at every
	// setting. 0 uses every core (runtime.GOMAXPROCS); 1 is fully serial.
	Parallelism int
}

// Validate reports a descriptive error naming the offending field and value
// for an unusable configuration. Zero values are valid (they select the
// paper's defaults); NewSystem validates automatically.
func (c SystemConfig) Validate() error {
	switch {
	case c.Ranks < 0:
		return fmt.Errorf("fafnir: SystemConfig.Ranks = %d: must be positive (or 0 for the paper default of 32)", c.Ranks)
	case c.Ranks != 0 && c.Ranks%8 != 0 && c.Ranks%2 != 0:
		return fmt.Errorf("fafnir: SystemConfig.Ranks = %d: not expressible as a DDR4 geometry (use a multiple of 8 for multi-channel, or an even count for a single channel)", c.Ranks)
	case c.RowsPerTable < 0:
		return fmt.Errorf("fafnir: SystemConfig.RowsPerTable = %d: must be positive (or 0 for the paper default of 128 Ki)", c.RowsPerTable)
	case c.BatchCapacity < 0:
		return fmt.Errorf("fafnir: SystemConfig.BatchCapacity = %d: must be positive (or 0 for the paper default of 32)", c.BatchCapacity)
	case c.QuerySize < 0:
		return fmt.Errorf("fafnir: SystemConfig.QuerySize = %d: must be positive (or 0 for the paper default of 16)", c.QuerySize)
	case c.Parallelism < 0:
		return fmt.Errorf("fafnir: SystemConfig.Parallelism = %d: must be non-negative (0 uses every core)", c.Parallelism)
	}
	return nil
}

func (c *SystemConfig) fillDefaults() {
	if c.Ranks == 0 {
		c.Ranks = 32
	}
	if c.RowsPerTable == 0 {
		c.RowsPerTable = 1 << 17
	}
	if c.BatchCapacity == 0 {
		c.BatchCapacity = 32
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.3
	}
	if c.QuerySize == 0 {
		c.QuerySize = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// System is a ready-to-run simulated memory system with a Fafnir tree
// attached. It is not safe for concurrent use.
type System struct {
	cfg    SystemConfig
	mcfg   dram.Config
	layout *memmap.Layout
	store  *embedding.Store
	engine *core.Engine
	mem    *dram.System
	inj    *fault.Injector
}

// NewSystem builds a system; zero-value config selects the paper's setup.
func NewSystem(cfg SystemConfig) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	mcfg, err := dram.DDR4Ranks(cfg.Ranks) // even, validated above
	if err != nil {
		return nil, err
	}

	layout := memmap.Uniform(mcfg, 512, 32, cfg.RowsPerTable)
	store, err := embedding.NewStore(layout.TotalRows(), 128, uint64(cfg.Seed))
	if err != nil {
		return nil, err
	}

	ecfg := core.Default()
	ecfg.NumRanks = cfg.Ranks
	ecfg.BatchCapacity = cfg.BatchCapacity
	ecfg.Parallelism = cfg.Parallelism
	engine, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	mem, err := dram.NewSystem(mcfg)
	if err != nil {
		return nil, err
	}
	sys := &System{
		cfg:    cfg,
		mcfg:   mcfg,
		layout: layout,
		store:  store,
		engine: engine,
		mem:    mem,
	}
	if !cfg.Faults.Empty() {
		inj, err := fault.NewInjector(cfg.Faults, mcfg.TotalRanks())
		if err != nil {
			return nil, err
		}
		sys.inj = inj
		mem.AttachFaults(inj)
	}
	return sys, nil
}

// TotalRows reports the number of embedding vectors in the system.
func (s *System) TotalRows() uint64 { return s.layout.TotalRows() }

// Row returns the raw embedding row at idx — the exact vector every DRAM
// read of idx yields, since the store is read-only. The serving layer's
// hot-embedding cache uses this hook to admit rows a flushed batch read.
func (s *System) Row(idx header.Index) (tensor.Vector, error) { return s.store.Vector(idx) }

// Dim reports the embedding dimensionality of every row.
func (s *System) Dim() int { return s.store.Dim() }

// AttachTracer threads a telemetry tracer through the system's engine and
// memory model: subsequent Lookup calls emit PE stage events (one lane per
// PE, grouped by tree level) and per-bank DRAM command spans onto the
// tracer's timeline. A nil tracer detaches. Tracing is observational only —
// outputs and cycle counts are bit-identical with or without it — and the
// serving layer uses this hook for its ?debug=trace echo.
func (s *System) AttachTracer(t Tracer) {
	s.engine.AttachTracer(t)
	s.mem.AttachTracer(t)
}

// SetSpanContext installs the parent span ID that subsequent hardware-batch
// trace spans link under (0 detaches). The serving layer uses this hook to
// chain engine spans under the request that paid for them; it only annotates
// events and never perturbs timing.
func (s *System) SetSpanContext(parent uint64) { s.engine.SetSpanContext(parent) }

// MemoryCounter reads one of the memory system's cumulative counters by
// name: "dram.reads", "dram.bursts", "dram.bytes", "dram.bytes_to_host",
// "dram.row_hits", "dram.row_misses", "dram.row_conflicts",
// "dram.refresh_delays", "dram.failed_rank_reads", "dram.writes" or
// "dram.bytes_written". Unknown names read zero. The serving layer uses this
// hook to attribute row-buffer behaviour to flushed batches.
func (s *System) MemoryCounter(name string) uint64 { return s.mem.Stats().Counter(name) }

// NumPEs reports the size of the attached Fafnir tree.
func (s *System) NumPEs() int { return s.engine.Tree().NumPEs() }

// ResetMemory clears DRAM timing state and statistics between experiments.
func (s *System) ResetMemory() { s.mem.Reset() }

// MemoryStats renders the DRAM access counters collected so far, one
// "name value" line per non-zero counter (the MemoryCounter names).
func (s *System) MemoryStats() string { return s.mem.Stats().String() }

// GenerateBatch draws n deterministic queries with the configured
// popularity skew and sum pooling.
func (s *System) GenerateBatch(n int, seed int64) (Batch, error) {
	gcfg := embedding.GeneratorConfig{
		NumQueries: n,
		QuerySize:  s.cfg.QuerySize,
		Rows:       s.layout.TotalRows(),
		Seed:       s.cfg.Seed*1_000_003 + seed,
	}
	if s.cfg.ZipfS > 1 {
		gcfg.Dist = embedding.Zipf
		gcfg.ZipfS = s.cfg.ZipfS
	}
	gen, err := embedding.NewGenerator(gcfg)
	if err != nil {
		return Batch{}, err
	}
	return gen.Batch(OpSum), nil
}

// Lookup runs a batch through the Fafnir tree with full timing. The engine
// checks every hardware batch as it goes: each query is folded from the rows
// its leaf reads staged, before the tree runs, and its output must match that
// golden reference bit for bit or the lookup fails. When a fault plan is
// attached the run degrades gracefully — dark-rank reads remap to replicas,
// corrupt reads retry with backoff — and the result carries a
// DegradedReport; the outputs are checked the same way.
func (s *System) Lookup(b Batch) (*LookupResult, error) {
	return s.engine.TimedLookupFaulted(s.store, s.layout, s.mem, b, !s.cfg.DisableDedup, s.inj)
}

// verify passes an interactive lookup's result through only if it ran and
// its outputs match the batch's golden reference: interactive mode has no
// hardware batches for the engine to check as it goes.
func (s *System) verify(b Batch, res *LookupResult, err error) (*LookupResult, error) {
	if err != nil {
		return nil, err
	}
	golden, err := b.Golden(s.store)
	if err != nil {
		return nil, err
	}
	if i := core.VerifyAgainstGolden(res.Outputs, golden, 1e-3); i >= 0 {
		return nil, fmt.Errorf("fafnir: query %d mismatches the golden reference", i)
	}
	return res, nil
}

// Golden computes the reference result of a batch (no simulation). It
// returns an error when the batch references rows outside the store.
func (s *System) Golden(b Batch) ([]Vector, error) { return b.Golden(s.store) }

// SpMV multiplies the sparse matrix by x on the Fafnir tree (vectorized
// mode, Section IV-D) and verifies the product against the reference.
func (s *System) SpMV(m *Matrix, x Vector) (*SpMVResult, error) {
	e, err := spmv.NewEngine(spmv.Default())
	if err != nil {
		return nil, err
	}
	res, err := e.Multiply(m, x, s.mem)
	if err != nil {
		return nil, err
	}
	want, err := m.MulVec(x)
	if err != nil {
		return nil, err
	}
	// The tree reduces in a different association order than the row-major
	// reference, so compare with a relative tolerance rather than exactly.
	for i := range want {
		if math.Abs(float64(res.Y[i]-want[i])) > 1e-4*(1+math.Abs(float64(want[i]))) {
			return nil, fmt.Errorf("fafnir: SpMV row %d mismatches the reference (%v vs %v)", i, res.Y[i], want[i])
		}
	}
	return res, nil
}

// SpMVTwoStep runs the same product on the Two-Step baseline accelerator.
func (s *System) SpMVTwoStep(m *Matrix, x Vector) (*twostep.Result, error) {
	e, err := twostep.NewEngine(twostep.Default())
	if err != nil {
		return nil, err
	}
	return e.Multiply(m, x, s.mem)
}

// Matrix generators, re-exported for examples and downstream callers.
var (
	// BandedMatrix generates a banded "scientific" matrix.
	BandedMatrix = sparse.Banded
	// GraphMatrix generates a power-law graph adjacency matrix.
	GraphMatrix = sparse.PowerLawGraph
	// UniformMatrix generates a uniformly sparse matrix.
	UniformMatrix = sparse.RandomUniform
	// DenseOperand generates a deterministic dense operand vector.
	DenseOperand = sparse.DenseVector
)

// CyclesToSeconds converts PE-clock cycles (200 MHz) to seconds.
func CyclesToSeconds(c uint64) float64 { return float64(c) / 200e6 }

// LookupInteractive serves the batch one query at a time in the paper's
// interactive mode (Section IV-C): lowest single-query latency, no batch
// headers, no deduplication.
func (s *System) LookupInteractive(b Batch) (*LookupResult, error) {
	res, err := s.engine.InteractiveLookup(s.store, s.layout, s.mem, b)
	return s.verify(b, res, err)
}

// LoadResult summarizes an offered-load (queueing) run.
type LoadResult = core.PipelineResult

// OfferedLoad streams batches into the tree at a fixed arrival interval (in
// PE cycles) and reports the queueing behaviour: average/maximum latency,
// queue depth, utilization, and achieved throughput.
func (s *System) OfferedLoad(batches []Batch, intervalCycles uint64) (*LoadResult, error) {
	return s.engine.OfferedLoad(s.store, s.layout, s.mcfg, batches, sim.Cycle(intervalCycles))
}

// Topology returns the one-line deployment description the serving CLI
// prints at startup, in the form Fleet and Federation use.
func (s *System) Topology() string { return fmt.Sprintf("system: %d ranks", s.cfg.Ranks) }

// TreeDOT renders the attached reduction tree in Graphviz dot format.
func (s *System) TreeDOT() string { return s.engine.Tree().DOT() }

// Config returns the system's configuration with defaults resolved; serving
// layers use it to size their batching to the engine (BatchCapacity).
func (s *System) Config() SystemConfig { return s.cfg }

// NewQuery builds one lookup query from raw embedding-row indices
// (deduplicated and sorted). Serving front-ends use it to translate wire
// requests into engine queries.
func NewQuery(indices ...uint32) Query {
	idx := make([]header.Index, len(indices))
	for i, v := range indices {
		idx[i] = header.Index(v)
	}
	return Query{Indices: header.NewIndexSet(idx...)}
}

// NewBatch bundles queries with a pooling operation.
func NewBatch(op ReduceOp, queries ...Query) Batch {
	return Batch{Queries: queries, Op: op}
}

// Online serving layer (internal/serve), re-exported: an HTTP front-end
// whose dynamic micro-batching coalescer merges concurrent lookup requests
// into shared hardware batches, extending the engine's deduplication window
// across users.
type (
	// ServeConfig parameterizes the serving layer (linger window, admission
	// queue bound, per-request deadline). Priority lanes are always on: a
	// request that names no priority rides the normal lane.
	ServeConfig = serve.Config
	// Server is the HTTP lookup front-end; see NewServer.
	Server = serve.Server
	// ServeMetrics is the serving layer's live instrumentation.
	ServeMetrics = serve.Metrics
	// Priority is a request's QoS lane: high, normal (the wire default), or
	// low. Low sheds first under overload; high is scheduled first.
	Priority = serve.Priority
	// RequestBreakdown is the per-request latency attribution the serving
	// layer returns on ?debug=trace and files in the SLO flight recorder:
	// queue/coalesce/cache/backend/combine/transfer, in exact simulated
	// cycles and measured wall microseconds.
	RequestBreakdown = serve.Breakdown
)

// The QoS lanes, re-exported for serving configuration.
const (
	PriorityHigh   = serve.PriorityHigh
	PriorityNormal = serve.PriorityNormal
	PriorityLow    = serve.PriorityLow
)

// ParsePriority maps a wire-format lane name — high, normal, low, or the
// empty string for the normal default — to its Priority.
func ParsePriority(s string) (Priority, error) { return serve.ParsePriority(s) }

// Serving-layer failure modes; match with errors.Is.
var (
	// ErrServeOverloaded reports a submission rejected by admission control.
	ErrServeOverloaded = serve.ErrOverloaded
	// ErrServeDraining reports a submission after graceful drain began.
	ErrServeDraining = serve.ErrDraining
)

// ServeBackend is what NewServer serves: a *System, a *Fleet, or a
// *Federation. Optional capabilities (row access for the cache, shard
// ownership, metric families, a topology line) are picked up by type
// assertion, so every backend gets the same HTTP surface.
type ServeBackend = serve.System

// NewServer builds the online serving front-end over a backend: POST
// /v1/lookup with dynamic micro-batching, GET /metrics in Prometheus text
// format, GET /healthz. A zero cfg.BatchCapacity takes the backend's own
// hardware batch capacity. Run its Handler on an http.Server; on shutdown
// call Drain after the listener stops.
func NewServer(b ServeBackend, cfg ServeConfig) (*Server, error) {
	if cfg.BatchCapacity == 0 {
		switch b := b.(type) {
		case *System:
			cfg.BatchCapacity = b.cfg.BatchCapacity
		case *Fleet:
			cfg.BatchCapacity = b.Config().BatchCapacity
		case *Federation:
			cfg.BatchCapacity = b.Config().Fleet.BatchCapacity
		}
	}
	return serve.New(b, cfg)
}

// Fault-tolerant sharded serving (internal/router), re-exported: a fleet
// front-end that owns N independent System shards, scatters each batch's
// indices to their owning shards, and reduces the partial pools through an
// in-network switch tree (RnetConfig below).
// Shard health is tracked by a per-shard three-state breaker fed by
// structured sub-lookup errors; dark shards fail over to the peer holding
// their replica rows, and when both copies are unreachable the batch
// degrades gracefully — partial outputs plus a DegradedReport — instead of
// failing.
type (
	// FleetConfig parameterizes a sharded fleet (shard count, replica
	// placement, breaker thresholds, probe backoff, retry deadline).
	FleetConfig = router.Config
	// Fleet is the shard router; it implements the same Lookup surface as
	// System, so NewServer serves it over HTTP unchanged.
	Fleet = router.Fleet
	// ShardState is one shard's breaker health: healthy, suspect, or dark.
	ShardState = router.State
	// FleetFaultPlan schedules fleet-level faults: whole-shard loss,
	// flapping shards, and correlated rank storms, plus a per-shard base
	// FaultPlan. The zero value injects nothing.
	FleetFaultPlan = fault.FleetPlan
	// ShardFailure schedules one shard going permanently dark.
	ShardFailure = fault.ShardFailure
	// ShardFlap schedules one shard dropping out and coming back.
	ShardFlap = fault.ShardFlap
	// ShardDegradedReport is one shard's entry in a fleet-level
	// DegradedReport (DegradedReport.Shards).
	ShardDegradedReport = core.ShardDegraded
)

// The breaker states, re-exported for health introspection (Fleet.Health).
const (
	ShardHealthy = router.Healthy
	ShardSuspect = router.Suspect
	ShardDark    = router.Dark
)

// ErrShardDown reports a sub-lookup dispatched to a shard the fleet fault
// plan had taken down, or one skipped because its breaker is dark; match
// with errors.Is.
var ErrShardDown = fault.ErrShardDown

// NewFleet builds a sharded fleet; the zero config selects a 4-shard fleet
// with 8 ranks per shard and the paper's batch capacity.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return router.New(cfg) }

// ParseFleetFaultPlan builds a FleetFaultPlan from the compact spec format
// fafnir-serve's -faults flag takes on a fleet (a superset of
// ParseFaultPlan's), e.g.
// "shard=1@40000;flap=2@1-300000;storm=6@20000;ecc=0.001;seed=7".
func ParseFleetFaultPlan(spec string) (FleetFaultPlan, error) { return fault.ParseFleet(spec) }

// Cross-shard reduction network and multi-fleet federation (internal/rnet,
// internal/router), re-exported. Every fleet reduces its per-shard partial
// pools through a simulated in-network switch tree shaped by
// FleetConfig.Rnet: a switch fires the moment its last live child's partial
// lands (a lost shard is simply an absent leaf), link and combine latency
// are charged in simulated cycles, and outputs are bit-identical to the
// reference oracle at every radix. A Federation stacks M such fleets behind
// one Lookup front-end and reduces the fleet partials through the same
// pipeline and switch-tree machinery.
type (
	// RnetConfig shapes a reduction tree: fan-in radix (0 = the default of
	// 2), per-hop link cycles, switch latency, and per-combine cost.
	RnetConfig = rnet.Config
	// FederationConfig parameterizes a multi-fleet federation: fleet count,
	// the shared member-fleet template, and the cross-fleet tree shape.
	FederationConfig = router.FederationConfig
	// Federation is M fleets behind one Lookup front-end; it implements the
	// same serving surface as Fleet, so NewServer serves it over HTTP
	// unchanged.
	Federation = router.Federation
)

// NewFederation builds a multi-fleet federation; the zero config selects
// two default fleets reduced through a radix-2 cross-fleet tree (the
// cross-fleet radix inherits the member fleets').
func NewFederation(cfg FederationConfig) (*Federation, error) { return router.NewFederation(cfg) }
