package router

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"fafnir/internal/embedding"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/oracle"
	"fafnir/internal/sim"
	"fafnir/internal/tensor"
)

// This file is the deterministic chaos suite of ISSUE 6: seeded fault storms
// replayed at Parallelism 1, 2, and NumCPU must produce bit-identical
// outputs, cycle counts, degraded reports, and failover decisions, and
// surviving-shard results must stay conformant to the oracle restricted to
// live shards.

// TestWholeShardLossFailsOver kills one shard and checks its replica answers
// with zero data loss: outputs stay bit-identical to the oracle, and the
// degraded report records the failover rather than lost queries.
func TestWholeShardLossFailsOver(t *testing.T) {
	f := testFleet(t, func(c *Config) {
		c.Fleet.ShardFailures = []fault.ShardFailure{{Shard: 1, At: 1}}
	})
	b := testBatch(t, f, 16, 7, tensor.OpSum)

	// First batch runs at fleet cycle 0, before the loss.
	res, err := f.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded.Empty() {
		t.Fatalf("pre-loss batch degraded: %+v", res.Degraded)
	}

	// Every later batch hits the dead shard and must fail over, bit-exact.
	want, err := oracle.Lookup(f.Store(), b)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		res, err = f.Lookup(b)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if d := oracle.Diff(res.Outputs, want); d != "" {
			t.Fatalf("round %d: failover outputs diverged: %s", round, d)
		}
		if res.Degraded.Empty() {
			t.Fatalf("round %d: no degraded report despite shard loss", round)
		}
		if len(res.Degraded.LostQueries) != 0 {
			t.Fatalf("round %d: lost queries %v despite live replica", round, res.Degraded.LostQueries)
		}
		var found bool
		for _, sd := range res.Degraded.Shards {
			if sd.Shard == 1 {
				found = true
				if !sd.FailedOver {
					t.Fatalf("round %d: shard 1 entry not marked failed over: %+v", round, sd)
				}
			}
		}
		if !found {
			t.Fatalf("round %d: no shard 1 entry in %+v", round, res.Degraded.Shards)
		}
	}
	// Two failures trip the breaker; the shard must be dark by now.
	if f.Health(1) != Dark {
		t.Fatalf("shard 1 health = %v after repeated loss", f.Health(1))
	}
}

// TestPairLossDegradesGracefully kills a shard and its replica holder: the
// batch still succeeds, queries fully on live shards stay bit-exact, and
// queries touching the lost pair match the oracle restricted to live-owned
// indices.
func TestPairLossDegradesGracefully(t *testing.T) {
	f := testFleet(t, func(c *Config) {
		// N=4: replicaHolder(1) = 3. Killing both orphans shard 1's rows.
		c.Fleet.ShardFailures = []fault.ShardFailure{
			{Shard: 1, At: 0},
			{Shard: 3, At: 0},
		}
	})
	b := testBatch(t, f, 24, 11, tensor.OpSum)
	res, err := f.Lookup(b)
	if err != nil {
		t.Fatalf("pair loss returned hard error: %v", err)
	}
	if res.Degraded.Empty() || len(res.Degraded.LostQueries) == 0 {
		t.Fatalf("pair loss produced no loss report: %+v", res.Degraded)
	}

	// Oracle restricted to live shards: drop every index owned by a dead
	// shard, then compare bit-exact. Fully-live queries are covered too —
	// their restriction is the identity.
	live := func(idx header.Index) bool {
		s := f.OwnerOf(idx)
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
	want, err := oracle.Lookup(f.Store(), restricted)
	if err != nil {
		t.Fatal(err)
	}
	if d := oracle.Diff(res.Outputs, want); d != "" {
		t.Fatalf("degraded outputs diverge from live-restricted oracle: %s", d)
	}

	// The loss must be itemized: every query that touched shard 1 or 3
	// appears in LostQueries, and no fully-live query does.
	lost := make(map[int]bool, len(res.Degraded.LostQueries))
	for _, qi := range res.Degraded.LostQueries {
		lost[qi] = true
	}
	for qi, q := range b.Queries {
		touches := false
		for _, idx := range q.Indices {
			if !live(idx) {
				touches = true
				break
			}
		}
		if touches != lost[qi] {
			t.Fatalf("query %d: touches dead pair = %v but lost = %v", qi, touches, lost[qi])
		}
	}
}

// TestFlapRecovery takes a shard down transiently and checks the full
// breaker arc: healthy → suspect → dark while down, probe lookups while
// dark, and a successful probe reopening the shard once the flap ends —
// after which lookups are clean again.
func TestFlapRecovery(t *testing.T) {
	f := testFleet(t, func(c *Config) {
		c.Fleet.ShardFlaps = []fault.ShardFlap{{Shard: 2, DownAt: 1, UpAt: 400_000}}
		c.ProbeBackoff = 1_000
		c.MaxProbeBackoff = 32_000
	})
	b := testBatch(t, f, 8, 13, tensor.OpSum)

	if _, err := f.Lookup(b); err != nil { // cycle 0: up
		t.Fatal(err)
	}
	sawSuspect, sawDark := false, false
	var recovered *sim.Cycle
	for round := 0; round < 200; round++ {
		res, err := f.Lookup(b)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		switch f.Health(2) {
		case Suspect:
			sawSuspect = true
		case Dark:
			sawDark = true
		case Healthy:
			if sawDark {
				c := f.Clock()
				recovered = &c
			}
		}
		if recovered != nil {
			if !res.Degraded.Empty() {
				t.Fatalf("round %d: degraded after recovery: %+v", round, res.Degraded)
			}
			break
		}
	}
	if !sawSuspect || !sawDark || recovered == nil {
		t.Fatalf("breaker arc incomplete: suspect=%v dark=%v recovered=%v (clock %d)",
			sawSuspect, sawDark, recovered != nil, f.Clock())
	}
	if *recovered < 400_000 {
		t.Fatalf("shard reopened at cycle %d, inside the flap window", *recovered)
	}
}

// chaosRun replays a fixed multi-batch workload under a seeded fleet storm
// and returns everything determinism must preserve: outputs, cycle counts,
// degraded reports, failover decisions, and final health states.
type chaosRun struct {
	Outputs  [][]tensor.Vector
	Cycles   []sim.Cycle
	Degraded []*struct {
		LostQueries []int
		Shards      []string
	}
	Clock  sim.Cycle
	Health []State
}

func runChaos(t *testing.T, parallelism int, muts ...func(*Config)) chaosRun {
	t.Helper()
	plan, err := fault.ParseFleet("shard=1@40000;flap=2@1-300000;storm=6@20000;ecc=0.001;seed=7")
	if err != nil {
		t.Fatal(err)
	}
	f := testFleet(t, func(c *Config) {
		c.Parallelism = parallelism
		c.Fleet = plan
		c.ProbeBackoff = 2_000
		for _, mut := range muts {
			mut(c)
		}
	})
	var out chaosRun
	for round := 0; round < 12; round++ {
		b := testBatch(t, f, 16, int64(round), tensor.OpSum)
		res, err := f.Lookup(b)
		if err != nil {
			t.Fatalf("parallelism %d round %d: %v", parallelism, round, err)
		}
		out.Outputs = append(out.Outputs, res.Outputs)
		out.Cycles = append(out.Cycles, res.TotalCycles)
		var d *struct {
			LostQueries []int
			Shards      []string
		}
		if !res.Degraded.Empty() {
			d = &struct {
				LostQueries []int
				Shards      []string
			}{LostQueries: res.Degraded.LostQueries}
			for _, sd := range res.Degraded.Shards {
				d.Shards = append(d.Shards, fmt.Sprintf("%d:%s:failover=%v:lost=%d/%d:%s",
					sd.Shard, sd.State, sd.FailedOver, sd.LostQueries, sd.LostIndices, sd.Err))
			}
		}
		out.Degraded = append(out.Degraded, d)
	}
	out.Clock = f.Clock()
	for s := 0; s < f.Shards(); s++ {
		out.Health = append(out.Health, f.Health(s))
	}
	return out
}

// TestChaosDeterminism is the acceptance gate: the same seeded storm at
// Parallelism 1, 2, and NumCPU yields bit-identical runs.
func TestChaosDeterminism(t *testing.T) {
	want := runChaos(t, 1)

	// The serial run must have exercised the interesting machinery at all:
	// at least one degraded batch and one dark shard along the way.
	anyDegraded := false
	for _, d := range want.Degraded {
		if d != nil {
			anyDegraded = true
		}
	}
	if !anyDegraded {
		t.Fatal("chaos plan produced no degraded batches; storm too weak to test anything")
	}

	levels := []int{2, runtime.NumCPU()}
	if runtime.NumCPU() == 2 {
		levels = []int{2, 3}
	}
	for _, par := range levels {
		got := runChaos(t, par)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d diverged from serial run:\ngot  %+v\nwant %+v", par, got, want)
		}
	}
}

// TestChaosReplayIdentical replays the identical storm on two fresh fleets
// at the same parallelism — the pure replay-determinism half of the gate.
func TestChaosReplayIdentical(t *testing.T) {
	a := runChaos(t, 0)
	b := runChaos(t, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two replays diverged:\nfirst  %+v\nsecond %+v", a, b)
	}
}

// TestShardDownErrorIsStructured pins ErrShardDown into the errors.Is
// taxonomy the router's envelope keys on.
func TestShardDownErrorIsStructured(t *testing.T) {
	f := testFleet(t, func(c *Config) {
		c.Fleet.ShardFailures = []fault.ShardFailure{{Shard: 0, At: 0}}
	})
	_, err := f.run(0, embedding.Batch{
		Op:      tensor.OpSum,
		Queries: []embedding.Query{{Indices: header.NewIndexSet(0)}},
	}, 0, false)
	if !errors.Is(err, fault.ErrShardDown) {
		t.Fatalf("err = %v, want ErrShardDown", err)
	}
	if !structuredFault(err) {
		t.Fatal("ErrShardDown not classified as structured")
	}
}

// TestCorrelatedRankStormStaysInShard checks a storm compiles to in-shard
// rank failures that the shards absorb via replica remaps (no fleet-level
// failover needed when single ranks die under rank-level replication).
func TestCorrelatedRankStormStaysInShard(t *testing.T) {
	f := testFleet(t, func(c *Config) {
		c.Fleet.Seed = 21
		c.Fleet.RankStorms = []fault.RankStorm{{At: 0, Ranks: 4}}
	})
	b := testBatch(t, f, 32, 23, tensor.OpSum)
	res, err := f.Lookup(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Lookup(f.Store(), b)
	if err != nil {
		t.Fatal(err)
	}
	if d := oracle.Diff(res.Outputs, want); d != "" {
		t.Fatalf("storm run diverged from oracle: %s", d)
	}
	if res.Degraded.Empty() {
		t.Fatal("storm fired but nothing degraded (expected in-shard remaps)")
	}
	if len(res.Degraded.LostQueries) != 0 {
		t.Fatalf("rank-level storm lost whole queries: %v", res.Degraded.LostQueries)
	}
}
