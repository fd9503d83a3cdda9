package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The report subcommand reads a Chrome trace-event file (a fafnir-sim
// -trace-out dump or a ?debug=trace echo from fafnir-serve) and attributes
// the traced window's latency to named pipeline stages by interval union, so
// a slow request can be answered with "where did the time go" instead of a
// raw event soup.
//
// The serving layer's own events (pid 2) run on a wall-clock timeline
// incommensurate with the 200 MHz simulated one, so they are reported as a
// separate wall-side section and excluded from the simulated-window coverage
// number.

// reportEvent is the decoded slice of one trace event the report needs.
type reportEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// pidServe mirrors telemetry.PIDServe without importing it here: the serve
// process's events carry wall-clock timestamps, not simulated ones.
const pidServe = 2

// reportStages maps event names to attribution stages, in display order.
var reportStages = []struct{ stage, help string }{
	{"memory", "DRAM activates, precharges, and column reads"},
	{"backend", "hardware gather+reduce batches (engine and shard windows)"},
	{"pe", "reduction-tree PE activity (inside backend)"},
	{"failover", "replica replays after shard failure"},
	{"combine", "partial-pool combining: rnet switch hops"},
}

// stageOf buckets one simulated-timeline span by name; "" means unattributed.
func stageOf(name string) string {
	switch name {
	case "PRE", "ACT", "RD":
		return "memory"
	case "hw_batch", "shard.lookup", "fleet.lookup":
		return "backend"
	case "pe.stage", "pe.compare", "pe.reduce", "pe.forward":
		return "pe"
	case "shard.failover":
		return "failover"
	case "combine", "switch", "fleet-switch":
		return "combine"
	}
	return ""
}

type interval struct{ lo, hi float64 }

// unionLen merges intervals and returns the total covered length.
func unionLen(ivs []interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, lo, hi := 0.0, ivs[0].lo, ivs[0].hi
	for _, iv := range ivs[1:] {
		if iv.lo > hi {
			total += hi - lo
			lo, hi = iv.lo, iv.hi
			continue
		}
		if iv.hi > hi {
			hi = iv.hi
		}
	}
	return total + (hi - lo)
}

func cmdReport(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: fafnir-trace report <chrome-trace.json>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []reportEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not a Chrome trace: %w", args[0], err)
	}

	// Partition spans: simulated-timeline spans bucket into stages; serve
	// spans (wall timeline) collect separately.
	byStage := map[string][]interval{}
	var attributed, simAll []interval
	var serveReq, serveFlush []reportEvent
	simSpans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.PID == pidServe {
			switch ev.Name {
			case "request":
				serveReq = append(serveReq, ev)
			case "flush":
				serveFlush = append(serveFlush, ev)
			}
			continue
		}
		iv := interval{ev.TS, ev.TS + ev.Dur}
		simSpans++
		simAll = append(simAll, iv)
		if st := stageOf(ev.Name); st != "" {
			byStage[st] = append(byStage[st], iv)
			attributed = append(attributed, iv)
		}
	}
	if simSpans == 0 && len(serveReq) == 0 && len(serveFlush) == 0 {
		return fmt.Errorf("%s: no duration spans to attribute", args[0])
	}

	if simSpans > 0 {
		var lo, hi float64
		first := true
		for _, iv := range simAll {
			if first || iv.lo < lo {
				lo = iv.lo
			}
			if first || iv.hi > hi {
				hi = iv.hi
			}
			first = false
		}
		window := hi - lo
		fmt.Printf("simulated timeline: %d spans, window %.2f us\n", simSpans, window)
		fmt.Printf("%-10s %12s %8s  %s\n", "stage", "busy us", "window%", "what")
		busiest, busiestUS := "", 0.0
		for _, st := range reportStages {
			busy := unionLen(byStage[st.stage])
			if len(byStage[st.stage]) == 0 {
				continue
			}
			fmt.Printf("%-10s %12.2f %7.1f%%  %s\n", st.stage, busy, pct(busy, window), st.help)
			// The pe stage nests inside backend spans; it never bottlenecks
			// on its own.
			if st.stage != "pe" && busy > busiestUS {
				busiest, busiestUS = st.stage, busy
			}
		}
		cov := unionLen(attributed)
		fmt.Printf("attributed: %.2f us of %.2f us (%.1f%% of the window)\n", cov, window, pct(cov, window))
		if busiest != "" && busiestUS > 0 {
			fmt.Printf("capacity: bottleneck stage is %s at %.1f%% utilization; the window sustains about %.2fx this workload before %s saturates\n",
				busiest, pct(busiestUS, window), window/busiestUS, busiest)
		}
	}

	if len(serveReq) > 0 || len(serveFlush) > 0 {
		fmt.Printf("serve timeline (wall clock):\n")
		if len(serveReq) > 0 {
			fmt.Printf("  requests: %d spans, mean %.2f us, max %.2f us\n",
				len(serveReq), meanDur(serveReq), maxDur(serveReq))
		}
		if len(serveFlush) > 0 {
			fmt.Printf("  flushes:  %d spans, mean %.2f us, max %.2f us\n",
				len(serveFlush), meanDur(serveFlush), maxDur(serveFlush))
		}
	}
	return nil
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func meanDur(evs []reportEvent) float64 {
	sum := 0.0
	for _, ev := range evs {
		sum += ev.Dur
	}
	return sum / float64(len(evs))
}

func maxDur(evs []reportEvent) float64 {
	m := 0.0
	for _, ev := range evs {
		if ev.Dur > m {
			m = ev.Dur
		}
	}
	return m
}
