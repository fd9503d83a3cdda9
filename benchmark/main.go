// Command benchmark is the repository's one layered, seeded, self-checking
// benchmark: it builds every system in this process, generates every input
// from the seed, runs the workloads of spec.go, checks every output against
// the oracle, and prints every metric by name with its unit. See README.md.
//
//	bash benchmark/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -seed 1 -out r.json -trace-out t.json   # all workloads, both passes
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"fafnir"
)

const (
	// numRounds rounds are measured per workload; each end-to-end time is the
	// median over the calmer half of them (steal.go). Ten rounds of a second
	// leave five to set aside when a neighbour takes the processors for part
	// of a run, and still hold several of the longest operation.
	numRounds  = 10
	warmUp     = time.Second // untimed, fully checked, before the first round
	setupReps  = 5           // set-ups per run; setup_s is the median of the calmer three
	quickRound = 300 * time.Millisecond
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	out      string
	traceOut string
	quick    bool
}

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "seconds measured per workload and pass")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics, spans off; 1: per-layer metrics from the traced pass; both")
	flag.StringVar(&o.out, "out", "", "write the result file (JSON) here")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's Chrome trace here")
	flag.BoolVar(&o.quick, "quick", false, "one short round on tiny pools (self-test)")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare A.json B.json")
	spec := flag.Bool("spec", false, "print the contract as BENCHMARK.json and exit")
	flag.Parse()

	if *spec {
		data, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}

	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	res, err := runAll(o)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if o.out != "" {
		if err := res.write(o.out); err != nil {
			fatal(err)
		}
	}
	// The last line is the machine-readable summary.
	line, err := json.Marshal(res.summary())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if res.failed() > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runAll sets every selected workload up, interleaves their rounds, and
// gathers the result.
func runAll(o options) (*result, error) {
	var selected []*workload
	if o.workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(o.workload); w != nil {
		selected = []*workload{w}
	} else {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return nil, fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds %v: must be positive", o.seconds)
	}

	res := newResult(o)
	var tr *tracer
	if o.trace != "0" {
		tr = newTracer()
	}
	var runs []*run
	// closed is set once the instances have been closed in the open, where
	// a failed drain is an error; until then an early return still stops
	// what set-up started.
	closed := false
	defer func() {
		if closed {
			return
		}
		for _, r := range runs {
			_ = r.inst.close() // already failing with another error
		}
	}()
	for _, w := range selected {
		r, err := newRun(w, o)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		runs = append(runs, r)
	}
	for _, r := range runs {
		r.warm()
	}
	if o.trace != "1" {
		// Rounds go round-robin across the workloads, so a noisy interval
		// on the machine spreads over all of them.
		for k := 0; k < roundPlan(o).rounds; k++ {
			for _, r := range runs {
				r.plain = append(r.plain, r.runner.round(roundPlan(o).length, nil))
			}
		}
	}
	if o.trace != "0" {
		// The traced pass alternates untraced and traced rounds, so the two
		// sides of the tracing overhead see the same machine.
		for k := 0; k < roundPlan(o).rounds; k++ {
			for _, r := range runs {
				r.rt.measure(func() int {
					b := r.runner.round(roundPlan(o).length/2, nil)
					t := r.runner.round(roundPlan(o).length/2, tr)
					r.base, r.traced = append(r.base, b), append(r.traced, t)
					return b.ops + t.ops
				})
			}
		}
	}
	for _, r := range runs {
		wr, err := r.finish(o, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.w.name, err)
		}
		res.Workloads = append(res.Workloads, wr)
	}
	closed = true
	for _, r := range runs {
		if err := r.inst.close(); err != nil {
			return nil, fmt.Errorf("%s: close: %w", r.w.name, err)
		}
	}
	if tr != nil {
		data := tr.trace.ChromeJSON()
		n, err := fafnir.ValidateTrace(data)
		if err != nil {
			return nil, fmt.Errorf("chrome trace does not validate: %w", err)
		}
		res.TraceEvents = n
		if o.traceOut != "" {
			if err := os.WriteFile(o.traceOut, data, 0o644); err != nil {
				return nil, err
			}
		}
	}
	res.Env.finish()
	return res, nil
}

// schedule is the round plan of one pass.
type schedule struct {
	rounds int
	length time.Duration
}

func roundPlan(o options) schedule {
	if o.quick {
		return schedule{1, quickRound}
	}
	return schedule{numRounds, time.Duration(o.seconds / numRounds * float64(time.Second))}
}

// run is one workload's state across the passes.
type run struct {
	w           *workload
	inst        instance
	runner      *runner
	tally       tally
	setupS      []float64
	setupStolen []float64 // steal share of each set-up
	plain       []round   // spans off: the end-to-end rounds
	base        []round   // spans off, inside the traced pass
	traced      []round   // spans on
	rt          runtimeMeter
	quick       bool
}

// newRun sets the workload up setupReps times and keeps the last instance:
// setup_s is the median, so one slow set-up does not decide it.
func newRun(w *workload, o options) (*run, error) {
	r := &run{w: w, quick: o.quick}
	reps := setupReps
	if o.quick || o.trace == "1" {
		reps = 1
	}
	for k := 0; k < reps; k++ {
		if r.inst != nil {
			if err := r.inst.close(); err != nil {
				return nil, err
			}
			r.inst = nil
		}
		runtime.GC() // every repetition starts from a collected heap
		steal := startSteal()
		t0 := time.Now()
		inst, err := w.setup(o.seed, o.quick)
		if err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.setupStolen = append(r.setupStolen, steal.share())
		r.inst = inst
	}
	r.runner = newRunner(r.inst, &r.tally)
	return r, nil
}

// warm runs the workload untimed with every output checked, so caches are
// warm when the first round starts.
func (r *run) warm() {
	d := warmUp
	if r.quick {
		d = quickRound / 3
	}
	r.runner.full = true
	r.runner.round(d, nil)
	r.runner.full = false
}

// finish runs the deterministic pass and the drills, and assembles the
// workload's record.
func (r *run) finish(o options, tr *tracer) (*workloadResult, error) {
	wr := &workloadResult{Name: r.w.name, Op: r.w.op, Item: r.w.item, Inputs: r.inst.inputs(),
		EndToEnd: map[string]*measured{}, PerLayer: map[string]*measured{}}
	clients := r.inst.clients()
	// The deterministic pass builds and tears down whatever it needs; any
	// goroutine still alive after it has leaked.
	before := runtime.NumGoroutine()
	sim, err := r.inst.simulated(tr)
	if err != nil {
		return nil, err
	}
	r.tally.merge(sim)
	wr.Notes = sim.notes
	settle(func() bool { return runtime.NumGoroutine() <= before })
	r.rt.leakedGoroutine = max(0, runtime.NumGoroutine()-before)

	if o.trace != "1" {
		var ips, p50, setups []float64
		kept := calmRounds(r.plain)
		for _, rd := range kept {
			ips = append(ips, ratio(rd.items, rd.seconds(clients)))
			p50 = append(p50, percentile(rd.latMS, 50))
		}
		for i, ok := range calmest(r.setupStolen) {
			if ok {
				setups = append(setups, r.setupS[i])
			}
		}
		for _, rd := range r.plain {
			wr.Steal.Rounds = append(wr.Steal.Rounds, rd.stolen)
		}
		wr.Steal.Setups, wr.Steal.RoundsKept, wr.Steal.SetupsKept = r.setupStolen, len(kept), len(setups)
		vals := map[string][]float64{
			"setup_s": setups, "items_per_s": ips, "op_p50_ms": p50,
			"sim_cycles_per_item": {ratio(sim.cycles, sim.items)},
			"sim_reads_per_item":  {ratio(sim.reads, sim.items)},
		}
		for _, def := range endToEnd {
			wr.EndToEnd[def.name] = newMeasured(def.unit, vals[def.name])
		}
		all := latencies(kept)
		wr.Samples = len(all)
		if p := tailPercentile(len(all)); p > 0 {
			wr.Tail = &tail{Percentile: p, MS: percentile(all, p), Samples: len(all)}
		}
	}
	if o.trace != "0" {
		layer := sim.layer // what the traced serial pass measured, if any
		if layer == nil {
			layer = metrics{}
		}
		if err := r.inst.drills(latencies(r.base, r.traced), layer); err != nil {
			return nil, fmt.Errorf("drills: %w", err)
		}
		r.benchMetrics(layer)
		r.rt.report(layer)
		for _, def := range perLayer {
			wr.PerLayer[def.name] = newMeasured(def.unit, []float64{layer[def.name]})
			delete(layer, def.name)
		}
		if len(layer) > 0 {
			var extra []string
			for k := range layer {
				extra = append(extra, k)
			}
			sort.Strings(extra)
			return nil, fmt.Errorf("per-layer metrics not in spec.go: %v", extra)
		}
	}
	wr.Attempted, wr.Failed, wr.Errors = r.tally.attempted, r.tally.failed, r.tally.errs
	return wr, nil
}

// benchMetrics reports the benchmark's own tracing cost and noise, and the
// operations' tail over the untraced rounds.
func (r *run) benchMetrics(out metrics) {
	clients := r.inst.clients()
	rate := func(rs []round) []float64 {
		var v []float64
		for _, rd := range rs {
			v = append(v, ratio(rd.items, rd.seconds(clients)))
		}
		return v
	}
	out["bench.trace_overhead_ratio"] = ratio(median(rate(r.traced)), median(rate(r.base)))
	out["bench.round_spread"] = spread(rate(r.base))
	var p90 []float64
	for _, rd := range r.base {
		p90 = append(p90, percentile(rd.latMS, 90))
	}
	out["tail.op_p90_ms"] = median(p90)
}

// latencies gathers the operation latencies of rounds, in milliseconds.
func latencies(rounds ...[]round) []float64 {
	var all []float64
	for _, rs := range rounds {
		for _, rd := range rs {
			all = append(all, rd.latMS...)
		}
	}
	return all
}
