package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"fafnir/internal/embedding"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// maxBodyBytes bounds one request body; 1 MiB holds far more queries than
// MaxQueriesPerRequest admits.
const maxBodyBytes = 1 << 20

// LookupRequest is the wire format of POST /v1/lookup. Exactly one of
// Indices (single-query shorthand) or Queries must be set.
type LookupRequest struct {
	// Indices is the single-query shorthand: one set of embedding rows to
	// gather and reduce.
	Indices []uint64 `json:"indices,omitempty"`
	// Queries carries several queries that travel in the same batch.
	Queries [][]uint64 `json:"queries,omitempty"`
	// Op is the pooling operation: sum (default), min, max, or mean.
	Op string `json:"op,omitempty"`
	// Priority is the QoS lane: high, normal (default), or low.
	Priority string `json:"priority,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline; zero
	// keeps the default and a negative value is rejected.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchInfo describes the hardware batch that served a response.
type BatchInfo struct {
	// Queries is the flushed batch's total query count (across every
	// coalesced request).
	Queries int `json:"queries"`
	// CoalescedRequests is how many concurrent requests shared the batch.
	CoalescedRequests int `json:"coalesced_requests"`
	// DRAMReads is the batch's deduplicated read count; NaiveReads is the
	// count without deduplication.
	DRAMReads  int `json:"dram_reads"`
	NaiveReads int `json:"naive_reads"`
	// TotalCycles is the simulated batch latency in PE-clock cycles.
	TotalCycles sim.Cycle `json:"total_cycles"`
	// Isolated marks a response recomputed alone after its shared batch
	// failed.
	Isolated bool `json:"isolated,omitempty"`
}

// LookupResponse is the wire format of a successful lookup.
type LookupResponse struct {
	// Outputs holds one reduced vector per request query, in request order.
	Outputs []tensor.Vector `json:"outputs"`
	// Batch describes the shared hardware batch that produced them.
	Batch BatchInfo `json:"batch"`
	// Degraded is set when the batch absorbed faults while serving this
	// request: the outputs are valid but may omit contributions from shards
	// that were unreachable along with their replicas. Absent on clean
	// responses.
	Degraded *DegradedInfo `json:"degraded,omitempty"`
	// Trace is the Chrome trace-event JSON of the batch that served the
	// request, echoed when the caller asked with ?debug=trace and the
	// backend supports tracing. Load it at ui.perfetto.dev. The trace
	// covers the whole flushed batch, co-travelling requests included.
	Trace json.RawMessage `json:"trace,omitempty"`
	// Breakdown is the request's per-stage latency attribution — where its
	// time went from enqueue to delivery, in exact simulated cycles and
	// measured wall microseconds. Echoed when the caller asked with
	// ?debug=trace.
	Breakdown *Breakdown `json:"breakdown,omitempty"`
}

// DegradedInfo is the wire rendering of a degraded batch, scoped to one
// request: which of the caller's own queries are partial, plus the
// batch-level fault work (rank remaps, ECC retries, per-shard failover).
type DegradedInfo struct {
	// PartialQueries lists this request's query indices (request-relative,
	// sorted) whose pooled outputs are missing at least one contribution.
	// Empty means every output is complete — the batch degraded without
	// losing this caller's data (e.g. a clean replica failover).
	PartialQueries []int `json:"partial_queries,omitempty"`
	// FailedRanks lists dark memory ranks observed during the batch.
	FailedRanks []int `json:"failed_ranks,omitempty"`
	// RemappedReads and Retries count in-shard replica reads and ECC retry
	// attempts absorbed during the batch.
	RemappedReads int `json:"remapped_reads,omitempty"`
	Retries       int `json:"retries,omitempty"`
	// Shards itemizes fleet-level robustness work per shard, in shard order.
	Shards []ShardDegradedInfo `json:"shards,omitempty"`
}

// ShardDegradedInfo is one shard's entry in a degraded response.
type ShardDegradedInfo struct {
	Shard int `json:"shard"`
	// State is the shard's breaker state after the batch: healthy, suspect,
	// or dark.
	State string `json:"state"`
	// FailedOver reports the replica shard answered in this shard's place.
	FailedOver bool `json:"failed_over,omitempty"`
	// LostQueries and LostIndices count batch-level data dropped when both
	// the shard and its replica were unreachable.
	LostQueries int `json:"lost_queries,omitempty"`
	LostIndices int `json:"lost_indices,omitempty"`
	// FailedRanks lists the shard's dark local ranks.
	FailedRanks []int `json:"failed_ranks,omitempty"`
	// Err is the structured error that triggered the robustness path.
	Err string `json:"error,omitempty"`
}

// degradedInfo scopes a batch-level degraded report to one request: the
// report's batch-relative lost-query indices are intersected with the
// request's query window [off, off+n) and rebased to request coordinates.
func degradedInfo(st BatchStats, n int) *DegradedInfo {
	d := st.Degraded
	if d == nil {
		return nil
	}
	info := &DegradedInfo{
		FailedRanks:   d.FailedRanks,
		RemappedReads: d.RemappedReads,
		Retries:       d.Retries,
	}
	for _, qi := range d.LostQueries {
		if qi >= st.QueryOffset && qi < st.QueryOffset+n {
			info.PartialQueries = append(info.PartialQueries, qi-st.QueryOffset)
		}
	}
	for _, sd := range d.Shards {
		info.Shards = append(info.Shards, ShardDegradedInfo{
			Shard:       sd.Shard,
			State:       sd.State,
			FailedOver:  sd.FailedOver,
			LostQueries: sd.LostQueries,
			LostIndices: sd.LostIndices,
			FailedRanks: sd.FailedRanks,
			Err:         sd.Err,
		})
	}
	return info
}

// ErrorResponse is the wire format of a failed lookup.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind is a stable machine-readable classification: bad_request,
	// overloaded, draining, deadline, rank_failed, retries_exhausted,
	// invariant_violated, or internal.
	Kind string `json:"kind"`
}

// Server is the HTTP front-end: a coalescer plus request validation,
// deadline handling, overload mapping, and the metrics endpoint.
type Server struct {
	cfg       Config
	sys       System
	co        *Coalescer
	m         *Metrics
	clk       clock
	slo       *telemetry.SLO
	mux       *http.ServeMux
	draining  atomic.Bool
	totalRows uint64
	// retrySeq drives the seeded Retry-After jitter: each overload rejection
	// advances the sequence, and (seed, seq) hashes to a small deterministic
	// delay so synchronized clients spread their retries.
	retrySeq atomic.Uint64
}

// New builds a server over sys. The zero Config selects defaults; see
// Config. The server starts its coalescer immediately.
func New(sys System, cfg Config) (*Server, error) {
	return newServer(sys, cfg, realClock{})
}

func newServer(sys System, cfg Config, clk clock) (*Server, error) {
	if sys == nil {
		return nil, fmt.Errorf("serve: nil system")
	}
	m := NewMetrics()
	co, err := newCoalescer(cfg, sys, m, clk)
	if err != nil {
		return nil, err
	}
	cfg = co.Config() // validated, defaults resolved
	s := &Server{cfg: cfg, sys: sys, co: co, m: m, clk: clk, totalRows: sys.TotalRows()}
	if reg, ok := sys.(MetricsRegistrar); ok {
		reg.RegisterMetrics(m.Registry())
	}
	// The SLO flight recorder: rolling good/bad accounting per lane, a
	// burn-rate gauge family on the shared registry, and the /debug/slo
	// rings of slowest and degraded requests.
	objectives := make(map[string]time.Duration, numLanes)
	for p, name := range laneNames {
		objectives[name] = cfg.SLOObjectives[Priority(p)]
	}
	s.slo = telemetry.NewSLO(telemetry.SLOConfig{
		Window:         cfg.SLOWindow,
		Objectives:     objectives,
		BudgetFraction: cfg.SLOBudget,
		K:              cfg.SLOK,
		Now:            clk.Now,
	})
	m.Registry().GaugeFuncVec("fafnir_slo_burn_rate",
		"SLO error-budget burn rate by lane over the rolling window (1.0 = bad requests arriving at exactly the budgeted fraction).",
		"lane", s.slo.BurnRate, laneNames[:]...)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/lookup", s.handleLookup)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/slo", s.handleSLO)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the live metrics set.
func (s *Server) Metrics() *Metrics { return s.m }

// Topology returns the backend's one-line deployment description, or ""
// when the backend does not describe itself (plain single systems).
func (s *Server) Topology() string {
	if td, ok := s.sys.(TopologyDescriber); ok {
		return td.Topology()
	}
	return ""
}

// Coalescer returns the server's coalescer (tests and embedders drive it
// directly).
func (s *Server) Coalescer() *Coalescer { return s.co }

// Drain stops admitting lookups and flushes everything queued, waiting up
// to ctx for the in-flight work to finish. Callers should stop the HTTP
// listener first (http.Server.Shutdown), then Drain.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.co.Close(ctx)
}

// SLO returns the server's flight recorder (tests and embedders inspect it
// directly).
func (s *Server) SLO() *telemetry.SLO { return s.slo }

func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.Render(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// parseQueries validates the wire request and builds the engine queries.
func (s *Server) parseQueries(req *LookupRequest) ([]embedding.Query, error) {
	var raw [][]uint64
	switch {
	case len(req.Indices) > 0 && len(req.Queries) > 0:
		return nil, fmt.Errorf("serve: set either indices or queries, not both")
	case len(req.Indices) > 0:
		raw = [][]uint64{req.Indices}
	case len(req.Queries) > 0:
		raw = req.Queries
	default:
		return nil, fmt.Errorf("serve: request carries no queries")
	}
	if len(raw) > s.cfg.MaxQueriesPerRequest {
		return nil, fmt.Errorf("serve: request carries %d queries, limit is %d", len(raw), s.cfg.MaxQueriesPerRequest)
	}
	queries := make([]embedding.Query, len(raw))
	for qi, idxs := range raw {
		if len(idxs) == 0 {
			return nil, fmt.Errorf("serve: query %d is empty", qi)
		}
		set := make([]header.Index, len(idxs))
		for i, idx := range idxs {
			if idx >= s.totalRows {
				return nil, fmt.Errorf("serve: query %d index %d out of range [0,%d)", qi, idx, s.totalRows)
			}
			set[i] = header.Index(idx)
		}
		queries[qi] = embedding.Query{Indices: header.NewIndexSet(set...)}
	}
	return queries, nil
}

// maxTimeoutMS is the largest timeout_ms that still fits a time.Duration.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// decodeLookup reads exactly one JSON request from body and validates it
// into the coalescer request and its deadline budget; every error it returns
// is the caller's fault (400 bad_request).
func (s *Server) decodeLookup(body io.Reader) (call Request, timeout time.Duration, err error) {
	var req LookupRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err = dec.Decode(&req); err != nil {
		return call, 0, fmt.Errorf("serve: bad request body: %w", err)
	}
	if _, err = dec.Token(); err != io.EOF {
		return call, 0, fmt.Errorf("serve: bad request body: trailing data after the request object")
	}
	if call.Op, err = tensor.ParseOp(req.Op); err != nil {
		return call, 0, err
	}
	if call.Priority, err = ParsePriority(req.Priority); err != nil {
		return call, 0, err
	}
	if call.Queries, err = s.parseQueries(&req); err != nil {
		return call, 0, err
	}
	if req.TimeoutMS < 0 || int64(req.TimeoutMS) > maxTimeoutMS {
		return call, 0, fmt.Errorf("serve: timeout_ms %d out of range [0,%d]", req.TimeoutMS, maxTimeoutMS)
	}
	if req.TimeoutMS == 0 {
		return call, s.cfg.DefaultTimeout, nil
	}
	return call, time.Duration(req.TimeoutMS) * time.Millisecond, nil
}

// classify maps a Submit error to its outcome, HTTP status, and wire kind.
func classify(err error) (Outcome, int, string) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return OutcomeOverload, http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, ErrDraining):
		return OutcomeDraining, http.StatusServiceUnavailable, "draining"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return OutcomeDeadline, http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, fault.ErrRankFailed):
		return OutcomeError, http.StatusInternalServerError, "rank_failed"
	case errors.Is(err, fault.ErrRetriesExhausted):
		return OutcomeError, http.StatusInternalServerError, "retries_exhausted"
	case errors.Is(err, fault.ErrShardDown):
		// A replicated fleet absorbs shard loss into degraded 200s; this
		// kind only surfaces from unreplicated deployments.
		return OutcomeError, http.StatusInternalServerError, "shard_down"
	case errors.Is(err, fault.ErrInvariantViolated):
		return OutcomeError, http.StatusInternalServerError, "invariant_violated"
	default:
		return OutcomeError, http.StatusInternalServerError, "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	start := s.clk.Now()
	call, timeout, err := s.decodeLookup(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.m.ObserveRequest(OutcomeBadRequest, s.clk.Now().Sub(start))
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Kind: "bad_request"})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// finish takes the request's one end stamp: the latency histogram and
	// the SLO recorder see the same number, filed under the same ID.
	finish := func(o Outcome, id uint64, bad bool, detail any) {
		lat := s.clk.Now().Sub(start)
		s.m.ObserveRequest(o, lat)
		s.slo.Observe(call.Priority.String(), id, lat, bad, detail)
	}
	call.Trace = r.URL.Query().Get("debug") == "trace"
	res, err := s.co.Submit(ctx, call)
	stats := res.Stats
	if err != nil {
		outcome, status, kind := classify(err)
		finish(outcome, stats.RequestID, true, kind)
		if status == http.StatusServiceUnavailable {
			// Overload backs off with seeded jitter so synchronized clients
			// spread their retries; a drain never comes back, so the fixed
			// minimum is honest there.
			w.Header().Set("Retry-After", s.retryAfter(outcome))
		}
		writeJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kind})
		return
	}
	degraded := degradedInfo(stats, len(call.Queries))
	outcome := OutcomeOK
	if degraded != nil {
		outcome = OutcomeDegraded
		s.m.DegradedResponses.Add(1)
	}
	finish(outcome, stats.RequestID, degraded != nil, stats.Breakdown)
	resp := LookupResponse{
		Outputs: res.Outputs,
		Batch: BatchInfo{
			Queries:           stats.BatchQueries,
			CoalescedRequests: stats.Requests,
			DRAMReads:         stats.MemoryReads,
			NaiveReads:        stats.NaiveReads,
			TotalCycles:       stats.TotalCycles,
			Isolated:          stats.Isolated,
		},
		Degraded: degraded,
		Trace:    res.Trace,
	}
	if call.Trace {
		resp.Breakdown = stats.Breakdown
	}
	writeJSON(w, http.StatusOK, resp)
}

// splitmix64 is the jitter hash (Vigna's SplitMix64 finalizer), shared with
// the fault injector and the router's breaker.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// retryAfter renders the 503 backoff hint: overload rejections jitter
// deterministically over {1, 2, 3} seconds from (RetryJitterSeed, sequence),
// so a burst of synchronized clients spreads its retry wave; drain keeps the
// fixed minimum — the listener is going away, the hint only needs to exist.
func (s *Server) retryAfter(o Outcome) string {
	if o != OutcomeOverload {
		return "1"
	}
	seq := s.retrySeq.Add(1)
	return strconv.FormatUint(1+splitmix64(s.cfg.RetryJitterSeed^seq)%3, 10)
}
