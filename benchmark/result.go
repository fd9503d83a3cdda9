package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// result is the result file: the environment the numbers were taken in and
// one record per workload.
type result struct {
	Env         environment       `json:"env"`
	Workloads   []*workloadResult `json:"workloads"`
	TraceEvents int               `json:"trace_events,omitempty"`
}

// environment is what two runs must share to be compared like for like.
type environment struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Clients     int     `json:"clients"`
	Rounds      int     `json:"rounds"`
	RoundS      float64 `json:"round_seconds"`
	Seed        int64   `json:"seed"`
	Quick       bool    `json:"quick,omitempty"`
	LoadStart   string  `json:"loadavg_start"`
	LoadEnd     string  `json:"loadavg_end"`
	CachesStart string  `json:"caches_start"`
	Loop        string  `json:"loop"`
}

func newResult(o options) *result {
	s := roundPlan(o)
	return &result{Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Clients: numClients(), Rounds: s.rounds, RoundS: s.length.Seconds(),
		Seed: o.seed, Quick: o.quick, LoadStart: loadavg(),
		CachesStart: "warmed: an untimed, fully checked warm-up precedes the first round",
		Loop:        fmt.Sprintf("closed loop; serving workloads run %d clients, one keep-alive connection each; library workloads run on one goroutine", numClients()),
	}}
}

func (e *environment) finish() { e.LoadEnd = loadavg() }

// commit is git rev-parse HEAD when the working directory is the root of a
// repository, and "unknown" in a bare checkout: git is not asked to search
// the directories above it.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(b))[:3], " ")
}

// workloadResult is one workload's record.
type workloadResult struct {
	Name      string               `json:"name"`
	Op        string               `json:"op"`
	Item      string               `json:"item"`
	Inputs    inputInfo            `json:"inputs"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Notes     []string             `json:"notes,omitempty"`
	Samples   int                  `json:"timed_ops,omitempty"`
	Tail      *tail                `json:"tail,omitempty"`
	Steal     stealRecord          `json:"steal"`
	EndToEnd  map[string]*measured `json:"end_to_end,omitempty"`
	PerLayer  map[string]*measured `json:"per_layer,omitempty"`
}

// stealRecord is the share of the machine's processor time the hypervisor
// withheld during each measured round and each set-up, and how many of each
// the end-to-end medians are taken over (the calmer half, steal.go).
type stealRecord struct {
	Rounds     []float64 `json:"rounds,omitempty"`
	RoundsKept int       `json:"rounds_kept,omitempty"`
	Setups     []float64 `json:"setups,omitempty"`
	SetupsKept int       `json:"setups_kept,omitempty"`
}

// tail is the highest latency percentile with at least ten samples beyond
// it, over every timed operation of the run.
type tail struct {
	Percentile float64 `json:"percentile"`
	MS         float64 `json:"ms"`
	Samples    int     `json:"samples"`
}

// measured is one metric: the reported value (the median of its rounds),
// the rounds themselves, and their interquartile spread over the median.
type measured struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
	Spread float64   `json:"spread,omitempty"`
}

func newMeasured(unit string, rounds []float64) *measured {
	m := &measured{Value: median(rounds), Unit: unit}
	if len(rounds) > 1 {
		m.Rounds, m.Spread = rounds, spread(rounds)
	}
	return m
}

func (r *result) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func (r *result) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes every metric by name with its unit.
func (r *result) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "fafnir benchmark  seed %d  %d rounds x %.2fs  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		e.Seed, e.Rounds, e.RoundS, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit)
	fmt.Fprintf(w, "%s; caches %s\n", e.Loop, e.CachesStart)
	fmt.Fprintln(w, "simulated (sim_*, *cycles*) numbers come from a model validated for shape only; see README.md for the paper's values")
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n== %s  (operation: %s; item: %s)\n", wr.Name, wr.Op, wr.Item)
		fmt.Fprintf(w, "   inputs %s  attempted %d  failed %d  fail_ratio %g\n",
			wr.Inputs.SHA256[:16], wr.Attempted, wr.Failed, ratio(float64(wr.Failed), float64(wr.Attempted)))
		for _, msg := range wr.Errors {
			fmt.Fprintf(w, "   FAILED: %s\n", msg)
		}
		for _, msg := range wr.Notes {
			fmt.Fprintf(w, "   NOTE: %s\n", msg)
		}
		for _, def := range endToEnd {
			if m := wr.EndToEnd[def.name]; m != nil {
				fmt.Fprintf(w, "   %-34s %16.6g %-7s spread %.3f\n", def.name, m.Value, m.Unit, m.Spread)
			}
		}
		if n := len(wr.Steal.Rounds); n > 0 {
			fmt.Fprintf(w, "   medians over the %d of %d rounds and %d of %d set-ups with least hypervisor steal (median steal %.3f, worst %.3f of processor time)\n",
				wr.Steal.RoundsKept, n, wr.Steal.SetupsKept, len(wr.Steal.Setups), median(wr.Steal.Rounds), percentile(wr.Steal.Rounds, 100))
		}
		if wr.Tail != nil {
			fmt.Fprintf(w, "   %-34s %16.6g %-7s p%g over %d timed operations\n", "op_tail_ms", wr.Tail.MS, "ms", wr.Tail.Percentile, wr.Tail.Samples)
		}
		// A layer the workload does not run reads 0 throughout; one line
		// says so. The summary line still carries every metric.
		busy := map[string]bool{}
		for _, def := range perLayer {
			if m := wr.PerLayer[def.name]; m != nil && m.Value != 0 {
				busy[def.layer] = true
			}
		}
		layer := ""
		for _, def := range perLayer {
			m := wr.PerLayer[def.name]
			if m == nil {
				continue
			}
			if def.layer != layer {
				layer = def.layer
				if busy[layer] {
					fmt.Fprintf(w, "   -- %s\n", layer)
				} else {
					fmt.Fprintf(w, "   -- %s: every metric 0 (not run by this workload)\n", layer)
				}
			}
			if busy[layer] {
				fmt.Fprintf(w, "   %-34s %16.6g %s\n", def.name, m.Value, m.Unit)
			}
		}
	}
	if r.TraceEvents > 0 {
		fmt.Fprintf(w, "\nchrome trace: %d events, validated\n", r.TraceEvents)
	}
}

// summaryLine is the machine-readable last line of standard output.
type summaryLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary gathers the run into one line. A single workload reports its
// metrics under their own names; several prefix them with the workload.
func (r *result) summary() summaryLine {
	s := summaryLine{Metrics: map[string]summaryValue{}}
	for _, w := range r.Workloads {
		s.Attempted += w.Attempted
		s.Failed += w.Failed
		prefix := ""
		if len(r.Workloads) > 1 {
			prefix = w.Name + "/"
		}
		for _, set := range []map[string]*measured{w.EndToEnd, w.PerLayer} {
			for name, m := range set {
				s.Metrics[prefix+name] = summaryValue{m.Value, m.Unit}
			}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}

// settle waits briefly for a condition that background goroutines bring
// about as they exit.
func settle(ok func() bool) {
	for deadline := time.Now().Add(2 * time.Second); !ok() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
}
