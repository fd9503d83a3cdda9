package main

import (
	"fmt"
	"sync"
	"time"
)

// A workload is one set of inputs plus the systems it runs them on. Its
// operations are numbered per client; operation i of client c is the same
// work on every run with the same seed.
type workload struct {
	name string
	// op and item say what one operation and one item are on this workload,
	// which is what gives ops, items_per_s and the sim_*_per_item metrics
	// their meaning here.
	op, item string
	why      string
	// setup builds every system and generates every input from the seed.
	// quick shrinks pools for the self-tests.
	setup func(seed int64, quick bool) (instance, error)
}

// instance is one set-up workload, ready to run.
type instance interface {
	// inputs describes what was generated.
	inputs() inputInfo
	// clients is the number of closed-loop callers; library workloads run
	// on one goroutine.
	clients() int
	// period is the number of consecutive operations that form one
	// balanced mix; a round ends only on a multiple of it.
	period() int
	// run performs operation i of client c, checks its output outside the
	// timed span, and returns the timed duration and the items it covered.
	// A wrong or failed output is an error. full asks a workload that
	// samples its expensive checks to apply them to this operation.
	run(c, i int, full bool, tr *tracer) (time.Duration, float64, error)
	// simulated replays the workload once in a fixed order on fresh
	// simulator state and returns the simulated statistics, which repeat
	// exactly for a seed. With a tracer it also records the serial pass's
	// spans and counters for the per-layer table.
	simulated(tr *tracer) (*simStats, error)
	// drills replays the generated inputs straight into each layer's public
	// functions and adds the per-layer metrics to out. latMS holds every
	// operation latency of the traced pass, for the layers that are clients.
	drills(latMS []float64, out metrics) error
	// close stops everything set-up started and waits for it.
	close() error
}

// inputInfo is the record of one workload's generated inputs.
type inputInfo struct {
	SHA256  string         `json:"input_sha256"`
	Seed    int64          `json:"seed"`
	Clients int            `json:"clients"`
	Counts  map[string]int `json:"counts"`
}

// simStats is the outcome of the deterministic pass.
type simStats struct {
	ops, failed int
	items       float64
	cycles      float64 // simulated PE cycles, summed
	reads       float64 // DRAM vector reads (embedding) or streamed elements (SpMV)
	errs        []string
	notes       []string // observations about the pass that are not failures
	// layer holds what the traced serial pass measured for the per-layer
	// table; nil without a tracer.
	layer metrics
}

// metrics maps a metric name to its value.
type metrics map[string]float64

// round is one measured interval.
type round struct {
	ops   int
	items float64
	wall  time.Duration // first send to last reply
	busy  time.Duration // timed spans, summed over clients
	latMS []float64
	// stolen is the share of the machine's processor time the hypervisor
	// withheld while the round ran (steal.go).
	stolen float64
}

// tally counts operations over a whole run.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (t *tally) merge(s *simStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += s.ops
	t.failed += s.failed
	for _, e := range s.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// runner drives one instance's clients through rounds; next holds each
// client's position in its operation sequence, so rounds continue where the
// previous one stopped.
type runner struct {
	inst  instance
	next  []int
	tally *tally
	full  bool // check every output in full (warm-up)
}

func newRunner(inst instance, t *tally) *runner {
	return &runner{inst: inst, next: make([]int, inst.clients()), tally: t}
}

// round runs every client closed-loop for at least d, each stopping on a
// whole period, and waits for all of them.
func (r *runner) round(d time.Duration, tr *tracer) round {
	n := r.inst.clients()
	per := make([]round, n)
	period := r.inst.period()
	var wg sync.WaitGroup
	steal := startSteal()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &per[c]
			i := r.next[c]
			for done := 0; time.Now().Before(deadline) || done%period != 0; done++ {
				dur, items, err := r.inst.run(c, i, r.full, tr)
				r.tally.add(err)
				i++
				if err != nil {
					continue
				}
				out.ops++
				out.items += items
				out.busy += dur
				out.latMS = append(out.latMS, float64(dur)/float64(time.Millisecond))
			}
			r.next[c] = i
		}(c)
	}
	wg.Wait()
	total := round{wall: time.Since(start), stolen: steal.share()}
	for _, p := range per {
		total.ops += p.ops
		total.items += p.items
		total.busy += p.busy
		total.latMS = append(total.latMS, p.latMS...)
	}
	return total
}

// seconds is the round's denominator: a single-goroutine library workload
// is charged its timed spans only (its output checks run between them); a
// serving workload is charged wall time, checks and all, because that is
// the rate its callers sustain.
func (rd round) seconds(clients int) float64 {
	if clients == 1 {
		return rd.busy.Seconds()
	}
	return rd.wall.Seconds()
}

// checkf builds the error of a failed output check.
func checkf(format string, args ...any) error {
	return fmt.Errorf("check: "+format, args...)
}
