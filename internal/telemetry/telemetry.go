// Package telemetry is the observability layer shared by every engine in the
// repository: a cycle-level event tracer whose streams load directly into
// Perfetto (Chrome trace-event JSON), and a typed metrics registry that
// renders the Prometheus text format served by the online front-end.
//
// Both halves follow the same contract as the dram.AccessLog hook they
// generalize: attachment is observational only and never perturbs simulated
// timing, and the detached (nil) path costs one pointer comparison on the hot
// path — zero allocations, no branches taken.
//
// Determinism. Trace events carry *simulated* cycles, not wall-clock time,
// and every engine emits them from its serial accounting sections (the timed
// per-batch loop, the DRAM read sequence), which run in program order at
// every Parallelism setting. A traced run therefore produces a bit-identical
// event stream whether the host evaluated the tree on one worker or on every
// core — the same construction-order folding that keeps PE statistics
// deterministic (docs/ARCHITECTURE.md §9) keeps the trace deterministic.
package telemetry

import (
	"sort"
	"sync"
)

// Phase classifies an event in the Chrome trace-event model. Only the
// phases the engines need are defined.
const (
	// PhaseSpan is a complete event ('X'): a named interval with a duration.
	PhaseSpan byte = 'X'
	// PhaseInstant is an instantaneous event ('i').
	PhaseInstant byte = 'i'
)

// Process-ID blocks of the unified timeline. Chrome trace viewers group
// lanes (threads) under processes; the repository assigns stable PID ranges
// so traces from several layers merge without collisions.
const (
	// PIDEngine groups engine-level lanes (hardware-batch spans).
	PIDEngine = 1
	// PIDServe groups serving-layer lanes (request lifecycle).
	PIDServe = 2
	// PIDRouter groups fleet-router lanes (per-shard scatter windows,
	// failover retries, probes, and the combine window).
	PIDRouter = 3
	// PIDRnet groups the in-network reduction lanes: one lane per switch
	// level of the rnet tree, carrying switch-fire spans (internal/rnet).
	PIDRnet = 4
	// PIDPELevelBase + level groups the PE lanes of one tree level.
	PIDPELevelBase = 10
	// PIDDRAMBase + globalRank groups one rank's per-bank lanes.
	PIDDRAMBase = 1000
)

// Lane (thread) IDs inside PIDServe. The serving layer emits request
// lifecycle instants on the requests lane, flush spans on the flusher lane,
// and hot-embedding cache consultations (strip-and-merge windows with
// hit/miss counts) on the cache lane.
const (
	TIDServeRequests = 0
	TIDServeFlusher  = 1
	TIDServeCache    = 2
)

// maxArgs bounds the per-event annotations; a fixed array keeps Event a
// plain value with no heap footprint.
const maxArgs = 8

// Arg is one key/value annotation on an event. A non-empty Str renders as a
// JSON string, otherwise Int renders as a number.
type Arg struct {
	Key string
	Str string
	Int int64
}

// Event is one trace record. TS and Dur are in cycles of the emitting
// component's own clock domain; ClockMHz converts them onto the unified
// microsecond timeline at export (wall-clock emitters use nanoseconds with
// ClockMHz = 1000, i.e. 1000 "cycles" per microsecond).
type Event struct {
	// Name is the event label shown on the slice; use static strings so the
	// emitting path does not allocate.
	Name string
	// Cat is the event category ("engine", "pe", "dram", "serve").
	Cat string
	// Phase is PhaseSpan or PhaseInstant.
	Phase byte
	// PID and TID place the event on a lane: PID groups lanes into a
	// process, TID selects the lane within it.
	PID, TID int
	// TS is the event start in cycles; Dur its length (PhaseSpan only).
	TS, Dur uint64
	// ClockMHz is the emitting clock domain, for the cycles-to-microseconds
	// conversion at export time.
	ClockMHz float64
	// Args holds up to maxArgs annotations; NArgs is how many are set.
	Args  [maxArgs]Arg
	NArgs int
}

// AddArg appends an annotation in place; extra args beyond the fixed
// capacity are dropped rather than allocated.
func (e *Event) AddArg(a Arg) {
	if e.NArgs < maxArgs {
		e.Args[e.NArgs] = a
		e.NArgs++
	}
}

// Tracer receives events and lane names. Implementations must be safe for
// concurrent use: the simulators emit serially, but the serving layer emits
// from handler goroutines.
//
// Engines hold a Tracer field that is nil by default and guard every
// emission with one nil check, so the tracing-off hot path stays free.
type Tracer interface {
	// Emit records one event.
	Emit(ev Event)
	// NameProcess labels a PID group. Idempotent; later names win.
	NameProcess(pid int, name string)
	// NameLane labels one (pid, tid) lane. Idempotent; later names win.
	NameLane(pid, tid int, name string)
}

// laneKey identifies one lane for metadata bookkeeping.
type laneKey struct{ pid, tid int }

// Trace is the standard Tracer: an in-memory event collector that exports
// Chrome trace-event JSON. The zero value is ready to use.
type Trace struct {
	mu        sync.Mutex
	events    []Event
	processes map[int]string
	lanes     map[laneKey]string
}

// NewTrace returns an empty collector.
func NewTrace() *Trace { return &Trace{} }

// Emit implements Tracer.
func (t *Trace) Emit(ev Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// NameProcess implements Tracer.
func (t *Trace) NameProcess(pid int, name string) {
	t.mu.Lock()
	if t.processes == nil {
		t.processes = make(map[int]string)
	}
	t.processes[pid] = name
	t.mu.Unlock()
}

// NameLane implements Tracer.
func (t *Trace) NameLane(pid, tid int, name string) {
	t.mu.Lock()
	if t.lanes == nil {
		t.lanes = make(map[laneKey]string)
	}
	t.lanes[laneKey{pid, tid}] = name
	t.mu.Unlock()
}

// Len reports the number of collected events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the collected events in emission order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Reset discards all collected events and lane names.
func (t *Trace) Reset() {
	t.mu.Lock()
	t.events = t.events[:0]
	t.processes = nil
	t.lanes = nil
	t.mu.Unlock()
}

// sortedEvents returns the events stable-sorted by (PID, TID, TS) — the
// order the Chrome exporter writes, which makes per-lane timestamps
// monotonic in the file. Emission order breaks ties, so the sort is
// deterministic for deterministic emitters.
func (t *Trace) sortedEvents() []Event {
	evs := t.Events()
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].PID != evs[j].PID {
			return evs[i].PID < evs[j].PID
		}
		if evs[i].TID != evs[j].TID {
			return evs[i].TID < evs[j].TID
		}
		return evs[i].TS < evs[j].TS
	})
	return evs
}
