package fafnir

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/header"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumPEs() != 31 {
		t.Fatalf("NumPEs = %d, want 31", sys.NumPEs())
	}
	if sys.TotalRows() != 32*(1<<17) {
		t.Fatalf("TotalRows = %d", sys.TotalRows())
	}
}

func TestNewSystemGeometries(t *testing.T) {
	for _, ranks := range []int{2, 8, 16, 32} {
		if _, err := NewSystem(SystemConfig{Ranks: ranks, RowsPerTable: 1024}); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
	}
	if _, err := NewSystem(SystemConfig{Ranks: 7}); err == nil {
		t.Fatal("odd rank count accepted")
	}
}

func TestLookupEndToEnd(t *testing.T) {
	sys, err := NewSystem(SystemConfig{RowsPerTable: 4096})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.GenerateBatch(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles == 0 || len(res.Outputs) != 16 {
		t.Fatalf("implausible result %+v", res)
	}
	golden, err := sys.Golden(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range golden {
		if !res.Outputs[i].Equal(golden[i]) {
			t.Fatalf("query %d mismatch", i)
		}
	}
}

// TestLookupDedupToggle pins that Lookup always deduplicates: a 32-query
// batch (one hardware batch) of 16-index queries reads each distinct row
// once, below the engine's raw run of the same batch with dedup off.
func TestLookupDedupToggle(t *testing.T) {
	sys, err := NewSystem(SystemConfig{RowsPerTable: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.GenerateBatch(32, 9)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[header.Index]bool{}
	for qi, q := range b.Queries {
		if q.Indices.Len() != 16 {
			t.Fatalf("query %d has %d indices, want 16", qi, q.Indices.Len())
		}
		for _, idx := range q.Indices {
			distinct[idx] = true
		}
	}
	res, err := sys.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sys.engine.TimedLookup(sys.store, sys.layout, dram.MustSystem(sys.mcfg), b, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryReads != len(distinct) || res.MemoryReads >= raw.MemoryReads {
		t.Fatalf("Lookup read %d rows, want the %d distinct ones, below the raw run's %d", res.MemoryReads, len(distinct), raw.MemoryReads)
	}
}

func TestSpMVEndToEnd(t *testing.T) {
	sys, err := NewSystem(SystemConfig{RowsPerTable: 1024})
	if err != nil {
		t.Fatal(err)
	}
	m := GraphMatrix(1024, 4, 7)
	x := DenseOperand(1024, 8)
	res, err := sys.SpMV(m, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles == 0 {
		t.Fatal("zero SpMV runtime")
	}
	ts, err := sys.SpMVTwoStep(m, x)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Y.Equal(res.Y) {
		t.Fatal("Two-Step disagrees with Fafnir")
	}
}

func TestMemoryStatsRender(t *testing.T) {
	sys, err := NewSystem(SystemConfig{RowsPerTable: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.GenerateBatch(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Lookup(b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sys.MemoryStats(), "dram.reads") {
		t.Fatalf("stats missing reads: %q", sys.MemoryStats())
	}
	sys.ResetMemory()
	if strings.Contains(sys.MemoryStats(), "dram.reads") {
		t.Fatal("stats survived reset")
	}
}

func TestCyclesToSeconds(t *testing.T) {
	if CyclesToSeconds(200e6) != 1 {
		t.Fatal("200M cycles at 200 MHz should be 1 s")
	}
}

func TestLookupInteractiveFacade(t *testing.T) {
	sys, err := NewSystem(SystemConfig{RowsPerTable: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.GenerateBatch(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.LookupInteractive(b)
	if err != nil {
		t.Fatal(err)
	}
	if res.HWBatches != 4 {
		t.Fatalf("HWBatches = %d (one per query expected)", res.HWBatches)
	}
	// Interactive outputs are the reference fold itself, so they match the
	// golden reference bit for bit.
	golden, err := sys.Golden(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range golden {
		if !res.Outputs[i].Equal(golden[i]) {
			t.Fatalf("query %d mismatch", i)
		}
	}
}

func TestOfferedLoadFacade(t *testing.T) {
	sys, err := NewSystem(SystemConfig{RowsPerTable: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var batches []Batch
	for i := 0; i < 4; i++ {
		b, err := sys.GenerateBatch(8, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	res, err := sys.OfferedLoad(batches, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 4 || res.Makespan == 0 {
		t.Fatalf("load result %+v", res)
	}
}

func TestTreeDOTFacade(t *testing.T) {
	sys, err := NewSystem(SystemConfig{RowsPerTable: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sys.TreeDOT(), "digraph fafnir") {
		t.Fatal("DOT render missing header")
	}
}

func TestLookupWithFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("rank=0@0;ecc=0.02;seed=5")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(SystemConfig{RowsPerTable: 1024, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.GenerateBatch(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Lookup golden-verifies internally, so success means the degraded run
	// still produced correct outputs.
	res, err := sys.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Degraded
	if d == nil {
		t.Fatal("fault-injected lookup reports no degradation")
	}
	if len(d.FailedRanks) != 1 || d.FailedRanks[0] != 0 {
		t.Fatalf("FailedRanks = %v, want [0]", d.FailedRanks)
	}
	if d.RemappedReads < 1 {
		t.Fatalf("expected remapped reads, got %+v", d)
	}
}

// TestLookupCatchesCorruptOutput: System.Lookup re-checks nothing after the
// engine, so the engine's per-pass golden check must catch one corrupted
// element of one resolved output, with and without a fault plan.
func TestLookupCatchesCorruptOutput(t *testing.T) {
	for _, spec := range []string{"", "rank=0@0;ecc=0.02;seed=5"} {
		var plan FaultPlan
		if spec != "" {
			var err error
			if plan, err = ParseFaultPlan(spec); err != nil {
				t.Fatal(err)
			}
		}
		sys, err := NewSystem(SystemConfig{RowsPerTable: 1024, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.GenerateBatch(80, 5) // three hardware batches
		if err != nil {
			t.Fatal(err)
		}
		corrupted := false
		sys.engine.GoldenCheckHook = func(_ int, got, _ []Vector) {
			if !corrupted {
				got[0][0]++
				corrupted = true
			}
		}
		_, err = sys.Lookup(b)
		sys.engine.GoldenCheckHook = nil
		if !errors.Is(err, ErrInvariantViolated) || !strings.Contains(err.Error(), "mismatches the golden reference") {
			t.Fatalf("faults=%q: a corrupted output got past System.Lookup: err = %v", spec, err)
		}
	}
}

func TestFleetFacade(t *testing.T) {
	f, err := NewFleet(FleetConfig{Rows: 4096, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Shards() != 4 {
		t.Fatalf("Shards = %d, want the default 4", f.Shards())
	}
	b, err := f.GenerateBatch(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 8 || res.TotalCycles == 0 {
		t.Fatalf("implausible fleet result %+v", res)
	}
	if !res.Degraded.Empty() {
		t.Fatalf("clean fleet lookup reports degradation: %+v", res.Degraded)
	}
	for s := 0; s < f.Shards(); s++ {
		if st := f.Health(s); st != ShardHealthy {
			t.Fatalf("shard %d health %v after a clean run, want healthy", s, st)
		}
	}
}

func TestFleetFacadeDegrades(t *testing.T) {
	plan, err := ParseFleetFaultPlan("shard=1@0;seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.ShardFailures) != 1 || plan.ShardFailures[0] != (ShardFailure{Shard: 1, At: 0}) {
		t.Fatalf("parsed plan %+v, want shard 1 down at 0", plan)
	}
	f, err := NewFleet(FleetConfig{Rows: 4096, Parallelism: 1, Fleet: plan})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.GenerateBatch(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Lookup(b)
	if err != nil {
		t.Fatalf("shard loss must degrade, not fail: %v", err)
	}
	if res.Degraded.Empty() || len(res.Degraded.Shards) == 0 {
		t.Fatalf("lookup through a dead shard reports no degradation: %+v", res.Degraded)
	}
	var entry *ShardDegradedReport
	for i := range res.Degraded.Shards {
		if res.Degraded.Shards[i].Shard == 1 {
			entry = &res.Degraded.Shards[i]
		}
	}
	if entry == nil || !entry.FailedOver {
		t.Fatalf("shard 1 did not fail over to its replica: %+v", res.Degraded.Shards)
	}
}

func TestFleetServerFacade(t *testing.T) {
	f, err := NewFleet(FleetConfig{Rows: 4096, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(f, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	srv.Metrics().Render(&sb)
	if !strings.Contains(sb.String(), "fafnir_router_shard_state") {
		t.Fatal("fleet server /metrics missing the router's shard-health family")
	}
}

// TestNewServerTakesBackendCapacity: a zero ServeConfig.BatchCapacity means
// the backend's own hardware batch capacity, whichever backend it is.
func TestNewServerTakesBackendCapacity(t *testing.T) {
	sys, err := NewSystem(SystemConfig{RowsPerTable: 128, BatchCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	fleet := FleetConfig{Rows: 4096, BatchCapacity: 4, Parallelism: 1}
	f, err := NewFleet(fleet)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := NewFederation(FederationConfig{Fleets: 2, Fleet: FleetConfig{Rows: 4096, BatchCapacity: 16, Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		backend ServeBackend
		want    int
		topo    string
	}{
		{sys, 8, "system: 32 ranks"},
		{f, 4, "fleet: 4 shards x 8 ranks"},
		{fd, 16, "federation: 2 fleets x 4 shards"},
	} {
		srv, err := NewServer(tc.backend, ServeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.Coalescer().Config().BatchCapacity; got != tc.want {
			t.Errorf("%T: serving batch capacity %d, want the backend's %d", tc.backend, got, tc.want)
		}
		if topo := srv.Topology(); !strings.HasPrefix(topo, tc.topo) {
			t.Errorf("%T: Topology() = %q, want prefix %q", tc.backend, topo, tc.topo)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFederationFacade(t *testing.T) {
	fd, err := NewFederation(FederationConfig{
		Fleets: 2,
		Fleet:  FleetConfig{Rows: 4096, Parallelism: 1, Rnet: RnetConfig{Radix: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fd.Shards() != 8 {
		t.Fatalf("Shards = %d, want 2 fleets x 4 shards", fd.Shards())
	}
	b, err := fd.GenerateBatch(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	b.Op = OpMean
	res, err := fd.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded.Empty() {
		t.Fatalf("healthy federation degraded: %+v", res.Degraded)
	}
	srv, err := NewServer(fd, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	srv.Metrics().Render(&sb)
	out := sb.String()
	for _, want := range []string{"fafnir_federation_fleet_lookups_total", "fafnir_rnet_combines_total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("federation server /metrics missing %q", want)
		}
	}
	if topo := srv.Topology(); !strings.Contains(topo, "2 fleets x 4 shards") {
		t.Fatalf("Topology() = %q, want the federation shape", topo)
	}
}

func TestSystemConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  SystemConfig
		want string // substring naming the offending field and value
	}{
		{"zero config is valid", SystemConfig{}, ""},
		{"paper config is valid", SystemConfig{Ranks: 32, RowsPerTable: 1 << 17, BatchCapacity: 32}, ""},
		{"negative ranks", SystemConfig{Ranks: -4}, "SystemConfig.Ranks = -4"},
		{"odd ranks", SystemConfig{Ranks: 7}, "SystemConfig.Ranks = 7"},
		{"negative rows", SystemConfig{RowsPerTable: -1024}, "SystemConfig.RowsPerTable = -1024"},
		{"negative capacity", SystemConfig{BatchCapacity: -1}, "SystemConfig.BatchCapacity = -1"},
		{"negative parallelism", SystemConfig{Parallelism: -2}, "SystemConfig.Parallelism = -2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error naming %q", err, tc.want)
			}
			// NewSystem must refuse the same config with the same message.
			if _, nerr := NewSystem(tc.cfg); nerr == nil || nerr.Error() != err.Error() {
				t.Fatalf("NewSystem() = %v, want the Validate error %v", nerr, err)
			}
		})
	}
}
