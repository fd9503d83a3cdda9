package fafnir

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/sim"
	"fafnir/internal/telemetry"
)

// This file threads the telemetry tracer through the timing engine. Like
// dram.AttachLog, attachment is observational: the engine emits events from
// the serial timed loop of TimedLookup, after treeTiming has produced the
// batch's readiness schedule, so a traced run is cycle-identical to an
// untraced one and the event stream is bit-identical at every Parallelism
// setting (the concurrent functional pass never emits).
//
// The tracing-off hot path costs one nil check per hardware batch.

// AttachTracer threads an event tracer into the engine: every subsequent
// TimedLookup emits hardware-batch spans and per-PE stage/compare/reduce/
// forward/merge events on the tracer's timeline, with one lane per PE
// grouped by tree level. A nil tracer detaches. Tracing never perturbs
// simulated timing.
func (e *Engine) AttachTracer(t telemetry.Tracer) {
	e.tracer = t
	if t == nil {
		return
	}
	// The topology is static, so all lanes are named eagerly at attach time
	// and the emission path never touches the name maps.
	t.NameProcess(telemetry.PIDEngine, "fafnir engine")
	t.NameLane(telemetry.PIDEngine, 0, "hw batches")
	for _, n := range e.tree.all {
		pid := telemetry.PIDPELevelBase + n.Level
		t.NameProcess(pid, fmt.Sprintf("PE level %d", n.Level))
		t.NameLane(pid, n.ID, fmt.Sprintf("PE%d (%s)", n.ID, n.Kind))
	}
}

// Tracer returns the attached tracer (nil when none).
func (e *Engine) Tracer() telemetry.Tracer { return e.tracer }

// SetSpanContext installs the parent span ID that subsequent hw_batch spans
// link under (0 detaches). The serving layer sets it to the flush span's ID
// before each Lookup so a request's spans form one parent-linked chain from
// the HTTP enqueue down to the hardware batch. The context only annotates
// events — it never perturbs timing.
func (e *Engine) SetSpanContext(parent uint64) { e.spanCtx = parent }

// traceBatch emits the events of one timed hardware batch: the batch-level
// span on the engine lane and one stage span per PE, with Table IV action
// sub-spans. issue is the batch's read-issue time on mem's clock;
// leafReady, ready, and perPE are the schedule treeTiming just produced;
// batchDone is the root completion plus host transfer, in PE cycles.
//
// The stage span of each PE runs from its input-ready time to its completion
// in the ready slot, so occupancy initiation intervals and injected PE
// stalls are visible as the gap after the fixed-latency action sub-spans.
func (e *Engine) traceBatch(mem *dram.System, k, reads, queries int, issue sim.MemCycle, leafReady []sim.MemCycle, ready []sim.Cycle, perPE []PEStats, batchDone sim.Cycle) {
	const mhz = sim.PEClockMHz
	issuePE := mem.ToPE(issue)
	ev := telemetry.Event{
		Name: "hw_batch", Cat: "engine", Phase: telemetry.PhaseSpan,
		PID: telemetry.PIDEngine, TID: 0,
		TS: uint64(issuePE), Dur: uint64(batchDone - issuePE), ClockMHz: mhz,
	}
	ev.AddArg(telemetry.Arg{Key: "batch", Int: int64(k)})
	ev.AddArg(telemetry.Arg{Key: "reads", Int: int64(reads)})
	ev.AddArg(telemetry.Arg{Key: "queries", Int: int64(queries)})
	ev.AddArg(telemetry.Arg{Key: telemetry.ArgSpan, Int: int64(telemetry.SpanID(e.spanCtx, "hw_batch", uint64(k)))})
	ev.AddArg(telemetry.Arg{Key: telemetry.ArgParent, Int: int64(e.spanCtx)})
	e.tracer.Emit(ev)

	lat := e.cfg.Latency
	reduceDur := sim.Max(lat.ReduceValue, lat.ReduceHeader)
	for i := range e.flat {
		n := &e.flat[i]
		// Recompute the node's input-ready time the way treeTiming did;
		// children precede parents in flat, so the ready slots already
		// hold this batch's values.
		var inReady sim.Cycle
		if n.leaf {
			inReady = mem.ToPE(leafReady[i])
		} else {
			inReady = ready[n.left]
			if n.right >= 0 {
				inReady = sim.Max(inReady, ready[n.right])
			}
		}
		st := perPE[i]
		pid := telemetry.PIDPELevelBase + int(n.level)

		stage := telemetry.Event{
			Name: "pe.stage", Cat: "pe", Phase: telemetry.PhaseSpan,
			PID: pid, TID: i,
			TS: uint64(inReady), Dur: uint64(ready[i] - inReady), ClockMHz: mhz,
		}
		stage.AddArg(telemetry.Arg{Key: "batch", Int: int64(k)})
		stage.AddArg(telemetry.Arg{Key: "compares", Int: int64(st.Compares)})
		stage.AddArg(telemetry.Arg{Key: "reduces", Int: int64(st.Reduces)})
		stage.AddArg(telemetry.Arg{Key: "forwards", Int: int64(st.Forwards)})
		stage.AddArg(telemetry.Arg{Key: "outputs", Int: int64(st.Outputs)})
		e.tracer.Emit(stage)

		if st.Compares > 0 {
			cmp := telemetry.Event{
				Name: "pe.compare", Cat: "pe", Phase: telemetry.PhaseSpan,
				PID: pid, TID: i,
				TS: uint64(inReady), Dur: uint64(lat.Compare), ClockMHz: mhz,
			}
			cmp.AddArg(telemetry.Arg{Key: "compares", Int: int64(st.Compares)})
			e.tracer.Emit(cmp)
		}
		// Reduce and forward run on parallel action paths after the compare.
		if st.Reduces > 0 {
			red := telemetry.Event{
				Name: "pe.reduce", Cat: "pe", Phase: telemetry.PhaseSpan,
				PID: pid, TID: i,
				TS: uint64(inReady + lat.Compare), Dur: uint64(reduceDur), ClockMHz: mhz,
			}
			red.AddArg(telemetry.Arg{Key: "reduces", Int: int64(st.Reduces)})
			e.tracer.Emit(red)
		}
		if st.Forwards > 0 {
			fwd := telemetry.Event{
				Name: "pe.forward", Cat: "pe", Phase: telemetry.PhaseSpan,
				PID: pid, TID: i,
				TS: uint64(inReady + lat.Compare), Dur: uint64(lat.Forward), ClockMHz: mhz,
			}
			fwd.AddArg(telemetry.Arg{Key: "forwards", Int: int64(st.Forwards)})
			e.tracer.Emit(fwd)
		}
		if st.MergedDuplicates > 0 {
			mrg := telemetry.Event{
				Name: "pe.merge", Cat: "pe", Phase: telemetry.PhaseInstant,
				PID: pid, TID: i,
				TS: uint64(ready[i]), ClockMHz: mhz,
			}
			mrg.AddArg(telemetry.Arg{Key: "merged", Int: int64(st.MergedDuplicates)})
			e.tracer.Emit(mrg)
		}
	}
}
