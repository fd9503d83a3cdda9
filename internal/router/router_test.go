package router

import (
	"errors"
	"strings"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/oracle"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// testFleet builds a small fleet with fast-probing breakers so chaos tests
// converge in a handful of batches.
func testFleet(t *testing.T, mut func(*Config)) *Fleet {
	t.Helper()
	cfg := Config{
		Shards:        4,
		RanksPerShard: 8,
		Rows:          4096,
		Seed:          1,
		Parallelism:   1,
		ProbeBackoff:  500,
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// testBatch draws n deterministic queries over the fleet's row space.
func testBatch(t *testing.T, f *Fleet, n int, seed int64, op tensor.ReduceOp) embedding.Batch {
	t.Helper()
	b, err := f.GenerateBatch(n, seed)
	if err != nil {
		t.Fatalf("GenerateBatch: %v", err)
	}
	b.Op = op
	return b
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative shards", func(c *Config) { c.Shards = -1 }, "Shards"},
		{"odd ranks", func(c *Config) { c.RanksPerShard = 3 }, "RanksPerShard"},
		{"one rank", func(c *Config) { c.RanksPerShard = 1 }, "RanksPerShard"},
		{"negative batch", func(c *Config) { c.BatchCapacity = -1 }, "BatchCapacity"},
		{"negative parallelism", func(c *Config) { c.Parallelism = -1 }, "Parallelism"},
		{"rows below shards", func(c *Config) { c.Rows = 3; c.Shards = 4 }, "canary"},
		{"bad flap", func(c *Config) {
			c.Fleet.ShardFlaps = []fault.ShardFlap{{Shard: 0, DownAt: 5, UpAt: 5}}
		}, "flap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			tc.mut(&cfg)
			_, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config: %v", err)
	}
}

func TestNewRejectsPlanOutsideFleet(t *testing.T) {
	var cfg Config
	cfg.Fleet.ShardFailures = []fault.ShardFailure{{Shard: 9, At: 0}}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("New = %v, want shard-bounds error", err)
	}
}

// TestLookupMatchesOracle checks the healthy-fleet contract: a fleet lookup
// is bit-identical to the single-store oracle for every pooling operation,
// with no degraded report.
func TestLookupMatchesOracle(t *testing.T) {
	f := testFleet(t, nil)
	for _, op := range []tensor.ReduceOp{tensor.OpSum, tensor.OpMean, tensor.OpMin, tensor.OpMax} {
		b := testBatch(t, f, 16, int64(op)+10, op)
		res, err := f.Lookup(b)
		if err != nil {
			t.Fatalf("op %v: Lookup: %v", op, err)
		}
		want, err := oracle.Lookup(f.Store(), b)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if d := oracle.Diff(res.Outputs, want); d != "" {
			t.Fatalf("op %v: %s", op, d)
		}
		if !res.Degraded.Empty() {
			t.Fatalf("op %v: healthy fleet reported degradation: %+v", op, res.Degraded)
		}
		if res.TotalCycles <= 0 {
			t.Fatalf("op %v: TotalCycles = %d", op, res.TotalCycles)
		}
	}
}

// TestShardGoldenCheckFires: every shard's engine checks its passes against
// their golden folds, so a corrupted output inside a shard fails the fleet
// lookup as a programming error instead of reaching the combine.
func TestShardGoldenCheckFires(t *testing.T) {
	f := testFleet(t, nil)
	b := testBatch(t, f, 16, 3, tensor.OpSum)
	corrupted := false
	core.GoldenCheckHook = func(_ int, got, _ []tensor.Vector) {
		if !corrupted {
			got[0][0]++
			corrupted = true
		}
	}
	defer func() { core.GoldenCheckHook = nil }()
	_, err := f.Lookup(b)
	if !errors.Is(err, fault.ErrInvariantViolated) || !strings.Contains(err.Error(), "mismatches the golden reference") {
		t.Fatalf("a corrupted shard output got past Fleet.Lookup: err = %v", err)
	}
}

// TestLookupAdvancesClock checks the fleet clock accumulates batch latency.
func TestLookupAdvancesClock(t *testing.T) {
	f := testFleet(t, nil)
	b := testBatch(t, f, 8, 1, tensor.OpSum)
	res1, err := f.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Clock() != res1.TotalCycles {
		t.Fatalf("clock = %d after one batch of %d cycles", f.Clock(), res1.TotalCycles)
	}
	res2, err := f.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Clock() != res1.TotalCycles+res2.TotalCycles {
		t.Fatalf("clock = %d, want %d", f.Clock(), res1.TotalCycles+res2.TotalCycles)
	}
}

func TestLookupRejectsBadBatches(t *testing.T) {
	f := testFleet(t, nil)
	if _, err := f.Lookup(embedding.Batch{Op: tensor.OpSum}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := f.Lookup(embedding.Batch{
		Op:      tensor.ReduceOp(99),
		Queries: []embedding.Query{{Indices: header.NewIndexSet(1)}},
	}); err == nil {
		t.Fatal("invalid op accepted")
	}
}

// TestEmptyQueryYieldsZeroVector mirrors the engine contract for queries
// with no indices.
func TestEmptyQueryYieldsZeroVector(t *testing.T) {
	f := testFleet(t, nil)
	b := embedding.Batch{Op: tensor.OpSum, Queries: []embedding.Query{
		{Indices: header.NewIndexSet()},
		{Indices: header.NewIndexSet(7)},
	}}
	res, err := f.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs[0]) != f.Store().Dim() {
		t.Fatalf("empty query output dim = %d", len(res.Outputs[0]))
	}
	for e, x := range res.Outputs[0] {
		if x != 0 {
			t.Fatalf("empty query output[%d] = %v, want 0", e, x)
		}
	}
}

// TestReplicaTopology pins the shard-replica mapping: holder is N/2 away,
// the relation inverts cleanly, and no shard replicates itself for N >= 2.
func TestReplicaTopology(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		f := testFleet(t, func(c *Config) { c.Shards = n; c.Rows = 4096 })
		for s := 0; s < n; s++ {
			h := f.replicaHolder(s)
			if h == s {
				t.Fatalf("N=%d: shard %d replicates itself", n, s)
			}
			if f.replicaPeer(h) != s {
				t.Fatalf("N=%d: replicaPeer(replicaHolder(%d)) = %d", n, s, f.replicaPeer(h))
			}
		}
	}
	// A one-shard fleet keeps no replicas: holder is the shard itself.
	f1 := testFleet(t, func(c *Config) { c.Shards = 1 })
	if f1.replicaHolder(0) != 0 {
		t.Fatalf("1-shard holder = %d", f1.replicaHolder(0))
	}
}

// TestPlacementRegions checks the three address regions of one shard never
// overlap: primary rows, in-shard rank replicas, and peer-shard copies each
// occupy disjoint slot ranges.
func TestPlacementRegions(t *testing.T) {
	f := testFleet(t, nil)
	node := f.leaves[0].(*shardNode)
	pv := node.primary
	regionBytes := pv.regionSlots() * uint64(pv.bytes)
	for idx := header.Index(0); uint64(idx) < f.TotalRows(); idx += 4 { // shard 0 owns idx % 4 == 0
		if a := uint64(pv.Addr(idx)); a >= regionBytes {
			t.Fatalf("primary addr %d of idx %d crosses region boundary %d", a, idx, regionBytes)
		}
		rr, ra, err := pv.Replica(idx)
		if err != nil {
			t.Fatal(err)
		}
		if rr == pv.Rank(idx) && pv.ranks > 1 {
			t.Fatalf("idx %d: replica rank equals primary rank %d", idx, rr)
		}
		if a := uint64(ra); a < regionBytes || a >= 2*regionBytes {
			t.Fatalf("idx %d: in-shard replica addr %d outside [%d,%d)", idx, a, regionBytes, 2*regionBytes)
		}
	}
	// Shard 0 hosts replicas of its peer; those land in the third region.
	peer := f.replicaPeer(0)
	for idx := header.Index(peer); uint64(idx) < f.TotalRows(); idx += 4 {
		if a := uint64(node.peerView.Addr(idx)); a < 2*regionBytes {
			t.Fatalf("peer idx %d: addr %d inside first two regions (%d)", idx, a, 2*regionBytes)
		}
	}
}

// TestBreakerStateMachine unit-tests the three-state breaker.
func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{base: 1000, cap: 8000, seed: 42}
	if b.state != Healthy {
		t.Fatalf("initial state %v", b.state)
	}
	if b.onFailure(100) {
		t.Fatal("first failure tripped dark")
	}
	if b.state != Suspect {
		t.Fatalf("after one failure: %v", b.state)
	}
	b.onSuccess()
	if b.state != Healthy || b.failures != 0 {
		t.Fatalf("success did not reset: %v failures=%d", b.state, b.failures)
	}
	b.onFailure(100)
	if !b.onFailure(200) {
		t.Fatal("threshold failure did not trip dark")
	}
	if b.state != Dark {
		t.Fatalf("after trip: %v", b.state)
	}
	if b.reopenAt <= 200 || b.reopenAt > 200+1000+250+1 {
		t.Fatalf("first reopen backoff %d outside (0, base+jitter]", b.reopenAt-200)
	}
	if b.probeDue(b.reopenAt - 1) {
		t.Fatal("probe due before backoff elapsed")
	}
	if !b.probeDue(b.reopenAt) {
		t.Fatal("probe not due at reopenAt")
	}
	// Failed probes grow the backoff, capped at cap plus the jitter span.
	prev := b.reopenAt
	for i := 0; i < 10; i++ {
		now := prev
		b.onProbeFailure(now)
		delay := b.reopenAt - now
		if delay > b.cap+b.base/4+1 {
			t.Fatalf("probe %d: backoff %d exceeds cap+jitter", i, delay)
		}
		prev = b.reopenAt
	}
	b.onSuccess()
	if b.state != Healthy || b.attempts != 0 {
		t.Fatalf("reopen did not reset: %v attempts=%d", b.state, b.attempts)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Healthy: "healthy", Suspect: "suspect", Dark: "dark", State(9): "unknown"} {
		if got := st.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
}

// TestAddLost pins the degraded report's per-query loss accounting: queries
// stay sorted and unique, and repeated losses for one query accumulate onto
// its aligned index count (the serving cache finalizes mean pooling from it).
func TestAddLost(t *testing.T) {
	var d core.DegradedReport
	for _, l := range []struct{ q, n int }{{5, 2}, {1, 4}, {5, 3}, {3, 1}, {1, 1}, {9, 7}, {3, 2}} {
		d.AddLost(l.q, l.n)
	}
	wantQ := []int{1, 3, 5, 9}
	wantN := []int{5, 3, 5, 7}
	if len(d.LostQueries) != len(wantQ) || len(d.LostIndexCounts) != len(wantN) {
		t.Fatalf("got %v / %v, want %v / %v", d.LostQueries, d.LostIndexCounts, wantQ, wantN)
	}
	for i := range wantQ {
		if d.LostQueries[i] != wantQ[i] || d.LostIndexCounts[i] != wantN[i] {
			t.Fatalf("got %v / %v, want %v / %v", d.LostQueries, d.LostIndexCounts, wantQ, wantN)
		}
	}
}

// TestMetricsRender checks the router families land on a registry and carry
// the per-shard label values.
func TestMetricsRender(t *testing.T) {
	f := testFleet(t, func(c *Config) {
		c.Fleet.ShardFailures = []fault.ShardFailure{{Shard: 1, At: 1}}
	})
	reg := telemetry.NewRegistry()
	f.RegisterMetrics(reg)

	b := testBatch(t, f, 16, 3, tensor.OpSum)
	if _, err := f.Lookup(b); err != nil { // healthy at clock 0
		t.Fatal(err)
	}
	if _, err := f.Lookup(b); err != nil { // shard 1 down now: failover
		t.Fatal(err)
	}

	var sb strings.Builder
	reg.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		`fafnir_router_shard_state{shard="1"} 1`,
		`fafnir_router_shard_failures_total{shard="1"} 1`,
		`fafnir_router_retries_total{shard="1"} 1`,
		`fafnir_router_failovers_total{shard="1"} 1`,
		"fafnir_router_degraded_batches_total 1",
		"fafnir_router_lost_queries_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRouterTrace checks a default-config fleet's spans land on the
// PIDRouter timeline, its switch firings on PIDRnet, and nothing on the
// engine/DRAM PID blocks.
func TestRouterTrace(t *testing.T) {
	f := testFleet(t, nil)
	tr := telemetry.NewTrace()
	f.AttachTracer(tr)
	b := testBatch(t, f, 8, 4, tensor.OpSum)
	if _, err := f.Lookup(b); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no router events")
	}
	var lookups, combines, switches int
	for _, ev := range evs {
		switch {
		case ev.PID == telemetry.PIDRnet && ev.Name == "switch":
			switches++
		case ev.PID != telemetry.PIDRouter:
			t.Fatalf("event %q on PID %d, want %d or %d", ev.Name, ev.PID, telemetry.PIDRouter, telemetry.PIDRnet)
		case ev.Name == "shard.lookup":
			lookups++
		case ev.Name == "combine":
			combines++
		}
	}
	if lookups == 0 || combines != 1 || switches != 3 {
		t.Fatalf("lookup spans = %d, combine spans = %d, switch spans = %d (want 3: 4-leaf radix-2 tree)",
			lookups, combines, switches)
	}
	f.AttachTracer(nil)
	n := tr.Len()
	if _, err := f.Lookup(b); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatal("detached tracer still received events")
	}
}

// TestMemoryCounterSums checks fleet-level memory counters are the sum of
// the shards' own.
func TestMemoryCounterSums(t *testing.T) {
	f := testFleet(t, nil)
	b := testBatch(t, f, 16, 5, tensor.OpSum)
	if _, err := f.Lookup(b); err != nil {
		t.Fatal(err)
	}
	var want dram.Counters
	for _, l := range f.leaves {
		want = want.Add(l.(*shardNode).mem.Stats())
	}
	if got := f.MemoryCounters(); got.Reads == 0 || got != want {
		t.Fatalf("fleet counters %+v, want the shards' sum %+v", got, want)
	}
}
