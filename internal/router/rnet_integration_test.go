package router

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fafnir/internal/embedding"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/oracle"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// This file is the fleet-level acceptance suite for the in-network combine
// (ISSUE 9): the per-shard partial pools reduce through the rnet switch
// tree, and the outputs must stay bit-identical to the reference oracle —
// healthy, degraded, and mid-combine-loss alike — at every radix and
// Parallelism.

// rnetFleet builds the canonical rnet test fleet: 4 shards behind a radix-2
// switch tree (3 interior nodes, 2 levels).
func rnetFleet(t *testing.T, mut func(*Config)) *Fleet {
	t.Helper()
	return testFleet(t, func(c *Config) {
		c.Rnet.Radix = 2
		if mut != nil {
			mut(c)
		}
	})
}

// TestRnetLookupMatchesLegacyAndOracle drives the same batches through
// fleets of several radices, for every pooling op: outputs must be exact
// against the oracle, the independent reference (the integer-valued store
// makes tree re-association exact; docs/ARCHITECTURE.md §15). The name
// predates the removal of the legacy host fold it once also compared with.
func TestRnetLookupMatchesLegacyAndOracle(t *testing.T) {
	ops := []tensor.ReduceOp{tensor.OpSum, tensor.OpMean, tensor.OpMax, tensor.OpMin}
	for _, op := range ops {
		for _, radix := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("op=%v/radix=%d", op, radix), func(t *testing.T) {
				tree := testFleet(t, func(c *Config) { c.Rnet.Radix = radix })
				for round := 0; round < 3; round++ {
					b := testBatch(t, tree, 16, int64(round+1), op)
					got, err := tree.Lookup(b)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := oracle.Lookup(tree.Store(), b)
					if err != nil {
						t.Fatal(err)
					}
					if d := oracle.Diff(got.Outputs, ref); d != "" {
						t.Fatalf("round %d: rnet outputs diverge from oracle: %s", round, d)
					}
				}
			})
		}
	}
}

// TestRnetChaosDeterminism replays the chaos_test.go seeded storm with the
// radix set explicitly: Parallelism 1, 2, and NumCPU must stay bit-identical
// (outputs, cycles, degraded reports, health).
func TestRnetChaosDeterminism(t *testing.T) {
	radix2 := func(c *Config) { c.Rnet.Radix = 2 }
	want := runChaos(t, 1, radix2)

	anyDegraded := false
	for _, d := range want.Degraded {
		if d != nil {
			anyDegraded = true
		}
	}
	if !anyDegraded {
		t.Fatal("chaos plan produced no degraded batches on the rnet path")
	}

	levels := []int{2, runtime.NumCPU()}
	if runtime.NumCPU() == 2 {
		levels = []int{2, 3}
	}
	for _, par := range levels {
		got := runChaos(t, par, radix2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d diverged from serial rnet run:\ngot  %+v\nwant %+v", par, got, want)
		}
	}
}

// TestRnetMidCombineMissingChild is the ISSUE 9 chaos satellite: a shard and
// its replica holder die before the batch, so by combine time two interior
// switches each fire with a missing child. The degraded output must be
// bit-identical to the live-restricted oracle at Parallelism 1, 2, and
// NumCPU, the missing children must be itemized in the rnet metrics, and the
// sibling subtrees must not stall — the degraded batch completes no later
// than a healthy one.
func TestRnetMidCombineMissingChild(t *testing.T) {
	pairLoss := func(c *Config) {
		// N=4: replicaHolder(1) = 3. Killing both orphans shard 1's rows.
		c.Fleet.ShardFailures = []fault.ShardFailure{
			{Shard: 1, At: 0},
			{Shard: 3, At: 0},
		}
	}

	type run struct {
		Outputs []tensor.Vector
		Cycles  uint64
		Lost    []int
	}
	levels := []int{1, 2, runtime.NumCPU()}
	var want run
	for i, par := range levels {
		f := rnetFleet(t, func(c *Config) {
			pairLoss(c)
			c.Parallelism = par
		})
		reg := telemetry.NewRegistry()
		f.RegisterMetrics(reg)
		b := testBatch(t, f, 24, 11, tensor.OpSum)
		res, err := f.Lookup(b)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if res.Degraded.Empty() || len(res.Degraded.LostQueries) == 0 {
			t.Fatalf("parallelism %d: pair loss produced no loss report", par)
		}
		got := run{Outputs: res.Outputs, Cycles: uint64(res.TotalCycles), Lost: res.Degraded.LostQueries}
		if i == 0 {
			want = got

			// Serial run only: pin the switch-level accounting. In the
			// 4-leaf radix-2 tree, switches {0,1} and {2,3} each lost one
			// child and the root lost none: 3 fires, 2 missing children.
			var sb strings.Builder
			reg.Render(&sb)
			out := sb.String()
			for _, line := range []string{
				"fafnir_rnet_switch_fires_total 3",
				"fafnir_rnet_missing_children_total 2",
			} {
				if !strings.Contains(out, line) {
					t.Fatalf("metrics missing %q:\n%s", line, out)
				}
			}

			// The degraded outputs match the oracle restricted to live-owned
			// indices — the lost leaves degraded the data, not the combine.
			live := func(idx header.Index) bool {
				s := f.ownerOf(idx)
				return s != 1 && s != 3
			}
			restricted := embedding.Batch{Op: b.Op}
			for _, q := range b.Queries {
				var keep []header.Index
				for _, idx := range q.Indices {
					if live(idx) {
						keep = append(keep, idx)
					}
				}
				restricted.Queries = append(restricted.Queries, embedding.Query{Indices: header.NewIndexSet(keep...)})
			}
			ref, err := oracle.Lookup(f.Store(), restricted)
			if err != nil {
				t.Fatal(err)
			}
			if d := oracle.Diff(res.Outputs, ref); d != "" {
				t.Fatalf("degraded rnet outputs diverge from live-restricted oracle: %s", d)
			}

			// No sibling stall: a healthy fleet running the identical batch
			// must not finish before the degraded one would if the missing
			// children blocked their switches. The degraded batch carries
			// strictly less data, so it completes no later.
			healthy := rnetFleet(t, nil)
			href, err := healthy.Lookup(b)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalCycles > href.TotalCycles {
				t.Fatalf("degraded batch took %d cycles, healthy took %d: missing child stalled a switch",
					res.TotalCycles, href.TotalCycles)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d diverged from serial degraded run", par)
		}
	}
}

// TestRnetSwitchStallChargesCycles pins the swstall fault clause on a
// default-config fleet (no Rnet field set — the clause used to be silently
// ignored there): stalling the root switch (plan switch 2 in the 4-leaf
// radix-2 tree) lengthens the combine stage, and so the batch, by exactly
// the stall, and outputs stay untouched.
func TestRnetSwitchStallChargesCycles(t *testing.T) {
	base := testFleet(t, nil)
	stalled := testFleet(t, func(c *Config) {
		plan, err := fault.ParseFleet("swstall=2+1000")
		if err != nil {
			t.Fatal(err)
		}
		c.Fleet = plan
	})
	b := testBatch(t, base, 16, 9, tensor.OpSum)
	want, err := base.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stalled.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatal("switch stall changed the outputs")
	}
	if got.Stages.Combine != want.Stages.Combine+1000 {
		t.Fatalf("stalled combine stage = %d cycles, want %d + 1000", got.Stages.Combine, want.Stages.Combine)
	}
	if got.TotalCycles != want.TotalCycles+1000 {
		t.Fatalf("stalled batch = %d cycles, want %d + 1000", got.TotalCycles, want.TotalCycles)
	}
}

// TestRnetMetricsRender checks the rnet families register and count on a
// default-config fleet: every fleet combines in-network.
func TestRnetMetricsRender(t *testing.T) {
	f := testFleet(t, nil)
	reg := telemetry.NewRegistry()
	f.RegisterMetrics(reg)
	b := testBatch(t, f, 16, 3, tensor.OpSum)
	if _, err := f.Lookup(b); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"fafnir_rnet_switch_fires_total 3",
		"fafnir_rnet_missing_children_total 0",
		"fafnir_rnet_combines_total",
		"fafnir_rnet_link_transfers_total",
		"fafnir_rnet_critical_path_cycles",
		`fafnir_router_shard_lookups_total{shard="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rnet metrics missing %q:\n%s", want, out)
		}
	}
}

// TestRnetTraceSpans checks switch firings land on the dedicated PIDRnet
// timeline, one lane per tree level, alongside the usual router spans.
func TestRnetTraceSpans(t *testing.T) {
	f := rnetFleet(t, nil)
	tr := telemetry.NewTrace()
	f.AttachTracer(tr)
	b := testBatch(t, f, 8, 4, tensor.OpSum)
	if _, err := f.Lookup(b); err != nil {
		t.Fatal(err)
	}
	var switches, combines int
	levels := map[int]bool{}
	for _, ev := range tr.Events() {
		switch {
		case ev.PID == telemetry.PIDRnet && ev.Name == "switch":
			switches++
			levels[ev.TID] = true
		case ev.PID == telemetry.PIDRouter && ev.Name == "combine":
			combines++
		case ev.PID != telemetry.PIDRouter && ev.PID != telemetry.PIDRnet:
			t.Fatalf("event %q on unexpected PID %d", ev.Name, ev.PID)
		}
	}
	if switches != 3 {
		t.Fatalf("switch spans = %d, want 3 (4-leaf radix-2 tree)", switches)
	}
	if !levels[1] || !levels[2] {
		t.Fatalf("switch spans missing a tree level lane: %v", levels)
	}
	if combines != 1 {
		t.Fatalf("combine spans = %d, want 1", combines)
	}
}

// TestRnetFailoverStaysExact checks a failed-over sub-lookup lands as a
// "late leaf" without perturbing the data: whole-shard loss with a live
// replica keeps rnet outputs bit-exact against the oracle, and the failover
// is itemized in the degraded report.
func TestRnetFailoverStaysExact(t *testing.T) {
	f := rnetFleet(t, func(c *Config) {
		c.Fleet.ShardFailures = []fault.ShardFailure{{Shard: 1, At: 1}}
	})
	b := testBatch(t, f, 16, 7, tensor.OpSum)
	if _, err := f.Lookup(b); err != nil { // cycle 0: healthy
		t.Fatal(err)
	}
	want, err := oracle.Lookup(f.Store(), b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := oracle.Diff(res.Outputs, want); d != "" {
		t.Fatalf("failover outputs diverged on the rnet path: %s", d)
	}
	if res.Degraded.Empty() || len(res.Degraded.LostQueries) != 0 {
		t.Fatalf("failover misreported: %+v", res.Degraded)
	}
}
