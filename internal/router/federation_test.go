package router

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/oracle"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// testFederation builds a small federation over the testFleet template.
func testFederation(t *testing.T, mut func(*FederationConfig)) *Federation {
	t.Helper()
	cfg := FederationConfig{
		Fleets: 2,
		Fleet: Config{
			Shards:        4,
			RanksPerShard: 8,
			Rows:          4096,
			Seed:          1,
			Parallelism:   1,
			ProbeBackoff:  500,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	fd, err := NewFederation(cfg)
	if err != nil {
		t.Fatalf("NewFederation: %v", err)
	}
	return fd
}

func TestFederationConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*FederationConfig)
		want string
	}{
		{"negative fleets", func(c *FederationConfig) { c.Fleets = -1 }, "Fleets"},
		{"preset stride", func(c *FederationConfig) { c.Fleet.OwnerStride = 2 }, "OwnerStride"},
		{"preset phase", func(c *FederationConfig) { c.Fleet.OwnerPhase = 1 }, "OwnerStride"},
		{"bad member", func(c *FederationConfig) { c.Fleet.Shards = -1 }, "Shards"},
		{"bad rnet", func(c *FederationConfig) { c.Rnet.Radix = 1 }, "Radix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cfg FederationConfig
			tc.mut(&cfg)
			_, err := NewFederation(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewFederation = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestFederationMatchesOracle drives every pooling op through 2- and 3-fleet
// federations and checks the scattered, twice-reduced outputs land bit-exact
// on the reference oracle — the recursive FAFNIR combine argument.
func TestFederationMatchesOracle(t *testing.T) {
	ops := []tensor.ReduceOp{tensor.OpSum, tensor.OpMean, tensor.OpMax, tensor.OpMin}
	for _, fleets := range []int{2, 3} {
		for _, op := range ops {
			t.Run(fmt.Sprintf("fleets=%d/op=%v", fleets, op), func(t *testing.T) {
				fd := testFederation(t, func(c *FederationConfig) { c.Fleets = fleets })
				for round := 0; round < 2; round++ {
					b, err := fd.GenerateBatch(16, int64(round+1))
					if err != nil {
						t.Fatal(err)
					}
					b.Op = op
					res, err := fd.Lookup(b)
					if err != nil {
						t.Fatal(err)
					}
					want, err := oracle.Lookup(fd.Fleet(0).Store(), b)
					if err != nil {
						t.Fatal(err)
					}
					if d := oracle.Diff(res.Outputs, want); d != "" {
						t.Fatalf("round %d: federation diverges from oracle: %s", round, d)
					}
					if !res.Degraded.Empty() {
						t.Fatalf("round %d: healthy federation degraded: %+v", round, res.Degraded)
					}
				}
			})
		}
	}
}

// TestFederationMatchesSingleFleet checks a federation is observationally a
// bigger fleet: the same batch through a 2x4 federation and a standalone
// fleet over the identical store yields bit-identical outputs.
func TestFederationMatchesSingleFleet(t *testing.T) {
	fd := testFederation(t, nil)
	single := testFleet(t, nil)
	for round := 0; round < 2; round++ {
		b := testBatch(t, single, 16, int64(round+3), tensor.OpMean)
		want, err := single.Lookup(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fd.Lookup(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) {
			t.Fatalf("round %d: federation outputs diverge from the standalone fleet", round)
		}
	}
}

// TestFederationOfOneMatchesFleet drives the shared scatter → dispatch →
// reduce pipeline from both front-ends with one assertion: a one-member
// federation adds a pass-through tree level over a fleet addressed exactly
// like the standalone one, so the same batches — healthy, then with a shard
// pair lost — must yield identical outputs, memory reads, and degraded
// reports, with the stage split summing to the total on both.
func TestFederationOfOneMatchesFleet(t *testing.T) {
	pairLoss := []fault.ShardFailure{{Shard: 1, At: 1}, {Shard: 3, At: 1}}
	fd := testFederation(t, func(c *FederationConfig) {
		c.Fleets = 1
		c.Fleet.Fleet.ShardFailures = pairLoss
	})
	single := testFleet(t, func(c *Config) { c.Fleet.ShardFailures = pairLoss })
	ops := []tensor.ReduceOp{tensor.OpSum, tensor.OpMean, tensor.OpMax, tensor.OpMin}
	sawLoss := false
	for round, op := range ops {
		b := testBatch(t, single, 16, int64(round+5), op)
		want, err := single.Lookup(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fd.Lookup(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) {
			t.Fatalf("round %d: federation-of-one outputs diverge from the fleet", round)
		}
		if got.MemoryReads != want.MemoryReads {
			t.Fatalf("round %d: MemoryReads = %d, fleet read %d", round, got.MemoryReads, want.MemoryReads)
		}
		if !reflect.DeepEqual(got.Degraded, want.Degraded) {
			t.Fatalf("round %d: degraded reports diverge:\nfederation %+v\nfleet      %+v", round, got.Degraded, want.Degraded)
		}
		sawLoss = sawLoss || !want.Degraded.Empty() && len(want.Degraded.LostQueries) > 0
		for name, res := range map[string]*core.TimedResult{"federation": got, "fleet": want} {
			if res.Stages.Sum() != res.TotalCycles {
				t.Fatalf("round %d: %s Stages.Sum() = %d, TotalCycles = %d", round, name, res.Stages.Sum(), res.TotalCycles)
			}
		}
	}
	if !sawLoss {
		t.Fatal("pair loss never landed; the degraded half of the comparison ran on nothing")
	}
}

// TestFederationCapabilities pins the front-end surface the serving layer
// keys on: global shard count, owner addressing, row access, clock advance.
func TestFederationCapabilities(t *testing.T) {
	fd := testFederation(t, nil)
	if fd.Fleets() != 2 {
		t.Fatalf("Fleets = %d, want 2", fd.Fleets())
	}
	if fd.Shards() != 8 {
		t.Fatalf("Shards = %d, want 2x4 = 8", fd.Shards())
	}
	if fd.TotalRows() != 4096 {
		t.Fatalf("TotalRows = %d, want 4096", fd.TotalRows())
	}
	if fd.Dim() != fd.Fleet(0).Dim() {
		t.Fatalf("Dim = %d, want member dim %d", fd.Dim(), fd.Fleet(0).Dim())
	}
	for idx := header.Index(0); idx < 64; idx++ {
		fm := int(idx) % 2
		owner := fd.OwnerOf(idx)
		if owner/4 != fm {
			t.Fatalf("OwnerOf(%d) = %d, not inside fleet %d", idx, owner, fm)
		}
		// The member's stride addressing must agree with the global ID.
		if got := fd.Fleet(fm).OwnerOf(idx); fm*4+got != owner {
			t.Fatalf("OwnerOf(%d) = %d, member says %d", idx, owner, fm*4+got)
		}
	}
	// Every member holds the full store: Row answers for any index and
	// matches each member bit-for-bit.
	v, err := fd.Row(7)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fd.Fleet(1).Row(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, w) {
		t.Fatal("member stores diverge: federation addressing is broken")
	}
	b, err := fd.GenerateBatch(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	b.Op = tensor.OpSum
	if fd.Clock() != 0 {
		t.Fatalf("fresh clock = %d", fd.Clock())
	}
	if _, err := fd.Lookup(b); err != nil {
		t.Fatal(err)
	}
	if fd.Clock() == 0 {
		t.Fatal("clock did not advance")
	}
	if fd.MemoryCounter("dram.reads") == 0 {
		t.Fatal("dram.reads stayed zero across the federation")
	}
}

// TestFederationLookupErrors pins the programming-error surface.
func TestFederationLookupErrors(t *testing.T) {
	fd := testFederation(t, nil)
	if _, err := fd.Lookup(embedding.Batch{Op: tensor.OpSum}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := fd.Lookup(embedding.Batch{Op: 99, Queries: []embedding.Query{{}}}); err == nil {
		t.Fatal("invalid op accepted")
	}
}

// TestFederationDegradedMember kills a shard pair inside every member (the
// template fault plan is shared) and checks losses merge onto global shard
// IDs with outputs exact against the live-restricted oracle — including the
// min/max zero-vector exclusion for queries a member lost entirely.
func TestFederationDegradedMember(t *testing.T) {
	for _, op := range []tensor.ReduceOp{tensor.OpSum, tensor.OpMax} {
		t.Run(op.String(), func(t *testing.T) {
			fd := testFederation(t, func(c *FederationConfig) {
				// N=4: replicaHolder(1) = 3; the pair orphans shard 1's rows
				// in each member. Globally that is shards {1, 3, 5, 7}.
				c.Fleet.Fleet.ShardFailures = []fault.ShardFailure{
					{Shard: 1, At: 0},
					{Shard: 3, At: 0},
				}
			})
			b, err := fd.GenerateBatch(24, 11)
			if err != nil {
				t.Fatal(err)
			}
			b.Op = op
			res, err := fd.Lookup(b)
			if err != nil {
				t.Fatalf("degraded federation returned hard error: %v", err)
			}
			if res.Degraded.Empty() || len(res.Degraded.LostQueries) == 0 {
				t.Fatalf("pair loss in every member produced no loss report: %+v", res.Degraded)
			}
			for _, sd := range res.Degraded.Shards {
				if sd.Shard < 0 || sd.Shard >= fd.Shards() {
					t.Fatalf("degraded entry carries non-global shard ID %d", sd.Shard)
				}
				if sd.Shard != 1 && sd.Shard != 3 && sd.Shard != 5 && sd.Shard != 7 {
					t.Fatalf("unexpected degraded shard %d", sd.Shard)
				}
			}

			live := func(idx header.Index) bool {
				s := fd.OwnerOf(idx)
				return s != 1 && s != 3 && s != 5 && s != 7
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
			want, err := oracle.Lookup(fd.Fleet(0).Store(), restricted)
			if err != nil {
				t.Fatal(err)
			}
			if d := oracle.Diff(res.Outputs, want); d != "" {
				t.Fatalf("degraded federation diverges from live-restricted oracle: %s", d)
			}
		})
	}
}

// TestFederationDeterminism replays a seeded member storm at Parallelism 1,
// 2, and NumCPU: outputs, cycles, and degraded reports must be
// bit-identical — concurrent member dispatch must not leak into the result.
func TestFederationDeterminism(t *testing.T) {
	type run struct {
		Outputs  [][]tensor.Vector
		Cycles   []uint64
		Degraded []string
	}
	replay := func(par int) run {
		plan, err := fault.ParseFleet("shard=1@40000;storm=6@20000;ecc=0.001;seed=7")
		if err != nil {
			t.Fatal(err)
		}
		fd := testFederation(t, func(c *FederationConfig) {
			c.Fleet.Parallelism = par
			c.Fleet.Fleet = plan
			c.Fleet.ProbeBackoff = 2_000
		})
		var out run
		for round := 0; round < 8; round++ {
			b, err := fd.GenerateBatch(16, int64(round))
			if err != nil {
				t.Fatal(err)
			}
			b.Op = tensor.OpSum
			res, err := fd.Lookup(b)
			if err != nil {
				t.Fatalf("parallelism %d round %d: %v", par, round, err)
			}
			out.Outputs = append(out.Outputs, res.Outputs)
			out.Cycles = append(out.Cycles, uint64(res.TotalCycles))
			out.Degraded = append(out.Degraded, fmt.Sprintf("%+v", res.Degraded))
		}
		return out
	}
	want := replay(1)
	for _, par := range []int{2, runtime.NumCPU()} {
		if got := replay(par); !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d diverged:\ngot  %+v\nwant %+v", par, got, want)
		}
	}
}

// TestFederationVerify checks the CI verify mode: every healthy batch is
// re-checked against the oracle and counted, and the run stays clean.
func TestFederationVerify(t *testing.T) {
	fd := testFederation(t, func(c *FederationConfig) { c.Verify = true })
	reg := telemetry.NewRegistry()
	fd.RegisterMetrics(reg)
	for round := 0; round < 2; round++ {
		b, err := fd.GenerateBatch(8, int64(round))
		if err != nil {
			t.Fatal(err)
		}
		b.Op = tensor.OpMean
		if _, err := fd.Lookup(b); err != nil {
			t.Fatalf("verify round %d: %v", round, err)
		}
	}
	var sb strings.Builder
	reg.Render(&sb)
	if !strings.Contains(sb.String(), "fafnir_federation_verified_total 2") {
		t.Fatalf("verified counter wrong:\n%s", sb.String())
	}
}

// TestFederationMetricsRender checks the federation families land on a
// registry with per-fleet labels and the cross-fleet rnet families count.
func TestFederationMetricsRender(t *testing.T) {
	fd := testFederation(t, nil)
	reg := telemetry.NewRegistry()
	fd.RegisterMetrics(reg)
	b, err := fd.GenerateBatch(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	b.Op = tensor.OpSum
	if _, err := fd.Lookup(b); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		`fafnir_federation_fleet_lookups_total{fleet="0"} 1`,
		`fafnir_federation_fleet_lookups_total{fleet="1"} 1`,
		"fafnir_federation_batches_total 1",
		"fafnir_rnet_switch_fires_total 1",
		"fafnir_rnet_combines_total",
		"fafnir_rnet_critical_path_cycles",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("federation metrics missing %q:\n%s", want, out)
		}
	}
}

// TestFederationTrace checks member lookup windows land on per-fleet
// PIDRouter lanes and cross-fleet switch fires on the PIDRnet timeline.
func TestFederationTrace(t *testing.T) {
	fd := testFederation(t, nil)
	tr := telemetry.NewTrace()
	fd.AttachTracer(tr)
	b, err := fd.GenerateBatch(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	b.Op = tensor.OpSum
	if _, err := fd.Lookup(b); err != nil {
		t.Fatal(err)
	}
	var fleets, switches int
	for _, ev := range tr.Events() {
		switch {
		case ev.PID == telemetry.PIDRouter && ev.Name == "fleet.lookup":
			fleets++
		case ev.PID == telemetry.PIDRnet && ev.Name == "fleet-switch":
			switches++
		}
	}
	if fleets != 2 {
		t.Fatalf("fleet.lookup spans = %d, want 2", fleets)
	}
	if switches != 1 {
		t.Fatalf("fleet-switch spans = %d, want 1 (2-leaf tree has one root)", switches)
	}
	fd.AttachTracer(nil)
	n := tr.Len()
	if _, err := fd.Lookup(b); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatal("detached tracer still received events")
	}
}
