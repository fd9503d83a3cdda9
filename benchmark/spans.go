package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fafnir/internal/telemetry"
)

// The benchmark's own spans: one per layer boundary it can see from outside
// the program. They are kept in memory while a traced pass runs and written
// as Chrome trace JSON when the benchmark ends. Host-time end-to-end metrics
// are always measured with no tracer.

// Lanes of the benchmark's process group in the exported trace. One lane per
// span kind and client keeps the spans of a lane from overlapping.
const (
	pidBench   = 90
	laneClient = 0  // + client
	laneHTTP   = 16 // + client
	laneBack   = 32
	laneOp     = 48
)

// tracer records spans. A nil *tracer records nothing, so call sites need no
// branch of their own.
type tracer struct {
	t0    time.Time
	trace *telemetry.Trace
	ids   atomic.Uint64

	mu  sync.Mutex
	dur map[string][]float64 // span name -> durations in microseconds
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now(), trace: telemetry.NewTrace(), dur: make(map[string][]float64)}
	tr.trace.NameProcess(pidBench, "benchmark")
	for c := 0; c < numClients(); c++ {
		tr.trace.NameLane(pidBench, laneClient+c, fmt.Sprintf("client.request %d", c))
		tr.trace.NameLane(pidBench, laneHTTP+c, fmt.Sprintf("http.handler %d", c))
	}
	tr.trace.NameLane(pidBench, laneBack, "backend.lookup")
	tr.trace.NameLane(pidBench, laneOp, "library operations")
	return tr
}

// nextID hands out a span identifier; the spans of one request share the
// client span's identifier as their root.
func (tr *tracer) nextID() uint64 { return tr.ids.Add(1) }

// span records one finished interval. parent 0 marks a root.
func (tr *tracer) span(name string, lane int, start time.Time, d time.Duration, id, parent uint64) {
	if tr == nil {
		return
	}
	ev := telemetry.Event{
		Name: name, Cat: "bench", Phase: telemetry.PhaseSpan,
		PID: pidBench, TID: lane,
		TS: uint64(start.Sub(tr.t0)), Dur: uint64(d),
		ClockMHz: 1000, // nanoseconds onto the microsecond timeline
	}
	ev.AddArg(telemetry.Arg{Key: telemetry.ArgSpan, Int: int64(id)})
	ev.AddArg(telemetry.Arg{Key: telemetry.ArgParent, Int: int64(parent)})
	tr.trace.Emit(ev)
	tr.mu.Lock()
	tr.dur[name] = append(tr.dur[name], float64(d)/float64(time.Microsecond))
	tr.mu.Unlock()
}

// take returns and forgets the durations recorded under name, in
// microseconds.
func (tr *tracer) take(name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	d := tr.dur[name]
	delete(tr.dur, name)
	return d
}
