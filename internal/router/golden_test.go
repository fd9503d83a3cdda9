package router

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// The golden digests pin everything a router front-end produces on the rnet
// combine path — outputs, cycle totals, stage splits, degraded reports,
// breaker health, the metrics page, and the traced event stream — for four
// seeded runs, each replayed at Parallelism 1 and 2 against the same digest.
// They were recorded before Fleet.Lookup and Federation.Lookup were merged
// onto one scatter/dispatch/reduce pipeline (ISSUE 15) and are the
// bit-identity proof for that refactor: a router change that moves any of
// them must say why and regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/router -run TestGoldenDigests
//
// The metrics digest covers every family's name, type, label set, order and
// value; `# HELP` prose is documentation and is left out so rewording a help
// string is not a behaviour change. Every scenario also asserts that each
// event its fault plan schedules fired in the replay (assertFired), so a
// stamp the fleet clock never reaches fails by name instead of leaving the
// digests to pin a run in which nothing happened.

const goldenFile = "testdata/golden_digests.json"

// goldenFront is the surface Fleet and Federation share.
type goldenFront interface {
	Lookup(embedding.Batch) (*core.TimedResult, error)
	GenerateBatch(n int, seed int64) (embedding.Batch, error)
	RegisterMetrics(*telemetry.Registry)
	AttachTracer(telemetry.Tracer)
	SetSpanContext(uint64)
}

type goldenScenario struct {
	name    string
	rounds  int
	queries int
	build   func(t *testing.T, par int) (goldenFront, []*Fleet)
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{
			name: "fleet-4x-radix2-healthy", rounds: 6, queries: 16,
			build: func(t *testing.T, par int) (goldenFront, []*Fleet) {
				f := rnetFleet(t, func(c *Config) { c.Parallelism = par })
				return f, []*Fleet{f}
			},
		},
		{
			// The chaos_test.go storm: failed and successful probes, breaker
			// trips, a reopen and serial failovers land in the digests.
			name: "fleet-4x-radix2-chaos", rounds: chaosRounds, queries: 16,
			build: func(t *testing.T, par int) (goldenFront, []*Fleet) {
				plan, err := fault.ParseFleet(chaosPlan)
				if err != nil {
					t.Fatal(err)
				}
				f := rnetFleet(t, func(c *Config) {
					c.Parallelism = par
					c.Fleet = plan
					c.ProbeBackoff = 2_000
				})
				return f, []*Fleet{f}
			},
		},
		{
			// A pair loss (lost sub-batches, missing switch children), a
			// flap that ends and a stalled switch.
			name: "fleet-4x-radix2-recovery", rounds: 40, queries: 16,
			build: func(t *testing.T, par int) (goldenFront, []*Fleet) {
				plan, err := fault.ParseFleet("flap=2@1-12000;shard=1@1;shard=3@20000;swstall=2+300;seed=3")
				if err != nil {
					t.Fatal(err)
				}
				f := rnetFleet(t, func(c *Config) {
					c.Parallelism = par
					c.Fleet = plan
					c.ProbeBackoff = 1_000
				})
				return f, []*Fleet{f}
			},
		},
		{
			name: "federation-2x4-radix2-member-pair-loss", rounds: 6, queries: 24,
			build: func(t *testing.T, par int) (goldenFront, []*Fleet) {
				fd := testFederation(t, func(c *FederationConfig) {
					c.Fleet.Parallelism = par
					c.Fleet.Rnet.Radix = 2
					c.Rnet.Radix = 2
				})
				// The template plan is shared by every member; to lose a
				// shard pair in member 1 only, schedule it on that member
				// after construction (the down check reads the plan per
				// lookup). N=4: replicaHolder(1) = 3, so the pair orphans
				// shard 1's rows from the member's second batch on.
				fd.Fleet(1).cfg.Fleet.ShardFailures = []fault.ShardFailure{
					{Shard: 1, At: 1},
					{Shard: 3, At: 1},
				}
				// The members publish no metrics of their own; assertFired
				// reads them from a registry of each member's.
				for _, f := range fd.fleets {
					f.RegisterMetrics(telemetry.NewRegistry())
				}
				return fd, fd.fleets
			},
		},
	}
}

// goldenRun drives one scenario and returns the digest of each pinned view.
func goldenRun(t *testing.T, sc goldenScenario, par int) map[string]string {
	t.Helper()
	front, fleets := sc.build(t, par)
	reg := telemetry.NewRegistry()
	front.RegisterMetrics(reg)
	tr := telemetry.NewTrace()
	front.AttachTracer(tr)
	front.SetSpanContext(0x5eed)

	ops := []tensor.ReduceOp{tensor.OpSum, tensor.OpMean, tensor.OpMax, tensor.OpMin}
	views := map[string]*strings.Builder{}
	view := func(name string) *strings.Builder {
		if views[name] == nil {
			views[name] = &strings.Builder{}
		}
		return views[name]
	}
	remapped := 0
	for round := 0; round < sc.rounds; round++ {
		b, err := front.GenerateBatch(sc.queries, int64(round))
		if err != nil {
			t.Fatal(err)
		}
		b.Op = ops[round%len(ops)]
		res, err := front.Lookup(b)
		if err != nil {
			t.Fatalf("parallelism %d round %d: %v", par, round, err)
		}
		remapped += remappedReads(res)
		fmt.Fprintf(view("outputs"), "%d %v\n", round, res.Outputs)
		fmt.Fprintf(view("cycles"), "%d total=%d mem=%d compute=%d transfer=%d reads=%d bytes=%d hw=%d occ=%d pe=%+v\n",
			round, res.TotalCycles, res.MemCycles, res.ComputeCycles, res.TransferCycles,
			res.MemoryReads, res.BytesRead, res.HWBatches, res.MaxOccupancy, res.PETotals)
		fmt.Fprintf(view("stages"), "%d %+v\n", round, res.Stages)
		if res.Stages.Sum() != res.TotalCycles {
			t.Fatalf("round %d: Stages.Sum() = %d, TotalCycles = %d", round, res.Stages.Sum(), res.TotalCycles)
		}
		if res.Degraded.Empty() {
			fmt.Fprintf(view("degraded"), "%d -\n", round)
		} else {
			fmt.Fprintf(view("degraded"), "%d %+v\n", round, *res.Degraded)
		}
		for fm, f := range fleets {
			for s := 0; s < f.Shards(); s++ {
				fmt.Fprintf(view("health"), "%d %d/%d=%v\n", round, fm, s, f.Health(s))
			}
		}
	}

	for _, f := range fleets {
		assertFired(t, f, remapped)
	}

	var page strings.Builder
	reg.Render(&page)
	for _, line := range strings.Split(page.String(), "\n") {
		if !strings.HasPrefix(line, "# HELP ") {
			fmt.Fprintln(view("metrics"), line)
		}
	}
	for _, ev := range tr.Events() {
		fmt.Fprintf(view("trace"), "%+v\n", ev)
	}
	// The Chrome export adds what Events() omits: process and lane names.
	view("trace").Write(tr.ChromeJSON())

	out := make(map[string]string, len(views))
	for name, sb := range views {
		out[name] = fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
	}
	return out
}

func TestGoldenDigests(t *testing.T) {
	got := map[string]map[string]string{}
	for _, sc := range goldenScenarios() {
		serial := goldenRun(t, sc, 1)
		for name, d := range goldenRun(t, sc, 2) {
			if serial[name] != d {
				t.Errorf("%s/%s: Parallelism 2 diverges from Parallelism 1", sc.name, name)
			}
		}
		got[sc.name] = serial
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	for scenario, views := range want {
		for name, d := range views {
			if got[scenario][name] != d {
				t.Errorf("%s/%s digest = %s, golden %s", scenario, name, got[scenario][name], d)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("ran %d scenarios, golden file holds %d", len(got), len(want))
	}
}
