package fault

import (
	"reflect"
	"strings"
	"testing"

	"fafnir/internal/sim"
)

func TestFleetPlanEmpty(t *testing.T) {
	var p FleetPlan
	if !p.Empty() {
		t.Fatal("zero plan not empty")
	}
	p.ShardFailures = []ShardFailure{{Shard: 0, At: 1}}
	if p.Empty() {
		t.Fatal("plan with shard failure reported empty")
	}
}

func TestFleetDownWindows(t *testing.T) {
	p := FleetPlan{
		ShardFailures: []ShardFailure{{Shard: 1, At: 100}},
		ShardFlaps:    []ShardFlap{{Shard: 2, DownAt: 50, UpAt: 80}},
	}
	cases := []struct {
		shard int
		at    sim.Cycle
		want  bool
	}{
		{1, 99, false}, {1, 100, true}, {1, 1 << 40, true},
		{2, 49, false}, {2, 50, true}, {2, 79, true}, {2, 80, false},
		{0, 100, false},
	}
	for _, tc := range cases {
		if got := p.Down(tc.shard, tc.at); got != tc.want {
			t.Fatalf("Down(%d, %d) = %v, want %v", tc.shard, tc.at, got, tc.want)
		}
	}
}

func TestFleetValidate(t *testing.T) {
	bad := []FleetPlan{
		{ShardFailures: []ShardFailure{{Shard: -1}}},
		{ShardFlaps: []ShardFlap{{Shard: 0, DownAt: 10, UpAt: 10}}},
		{RankStorms: []RankStorm{{At: 5, Ranks: 0}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("plan %d validated: %+v", i, p)
		}
	}
	ok := FleetPlan{ShardFailures: []ShardFailure{{Shard: 3, At: 0}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ok.ValidateFor(4); err != nil {
		t.Fatal(err)
	}
	if err := ok.ValidateFor(3); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("ValidateFor(3) = %v, want bounds error", err)
	}
	flap := FleetPlan{ShardFlaps: []ShardFlap{{Shard: 5, DownAt: 0, UpAt: 1}}}
	if err := flap.ValidateFor(4); err == nil {
		t.Fatal("flap on shard 5 accepted for a 4-shard fleet")
	}
}

// TestShardPlanDeterministicAndComplete checks the storm compilation: every
// storm draw lands on exactly one shard, two compilations agree, and distinct
// shards get distinct ECC seeds.
func TestShardPlanDeterministicAndComplete(t *testing.T) {
	p := FleetPlan{Seed: 7, RankStorms: []RankStorm{{At: 1000, Ranks: 10}}}
	const shards, ranks = 4, 8
	total := 0
	seeds := map[uint64]bool{}
	for s := 0; s < shards; s++ {
		a := p.ShardPlan(s, shards, ranks)
		b := p.ShardPlan(s, shards, ranks)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shard %d: two compilations differ", s)
		}
		for _, rf := range a.RankFailures {
			if rf.Rank < 0 || rf.Rank >= ranks {
				t.Fatalf("shard %d: storm rank %d outside [0,%d)", s, rf.Rank, ranks)
			}
			if rf.At != 1000 {
				t.Fatalf("shard %d: storm failure at %d, want 1000", s, rf.At)
			}
			total++
		}
		if seeds[a.Seed] {
			t.Fatalf("shard %d: duplicate derived seed %d", s, a.Seed)
		}
		seeds[a.Seed] = true
	}
	if total != 10 {
		t.Fatalf("storm compiled to %d rank failures across the fleet, want 10", total)
	}
}

// TestShardPlanKeepsBase checks base-plan rank failures reach every shard
// without aliasing the shared slice.
func TestShardPlanKeepsBase(t *testing.T) {
	p := FleetPlan{Shard: Plan{RankFailures: []RankFailure{{Rank: 3, At: 77}}}}
	a := p.ShardPlan(0, 2, 8)
	b := p.ShardPlan(1, 2, 8)
	if len(a.RankFailures) != 1 || len(b.RankFailures) != 1 {
		t.Fatalf("base failures not propagated: %v / %v", a.RankFailures, b.RankFailures)
	}
	a.RankFailures[0].Rank = 5
	if p.Shard.RankFailures[0].Rank != 3 || b.RankFailures[0].Rank != 3 {
		t.Fatal("ShardPlan aliases the base plan's failure slice")
	}
}

func TestParseFleetRoundTrip(t *testing.T) {
	spec := "seed=7;shard=1@40000;flap=2@1-300000;storm=6@20000;ecc=0.001"
	p, err := ParseFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.ShardFailures) != 1 || len(p.ShardFlaps) != 1 || len(p.RankStorms) != 1 {
		t.Fatalf("parsed %+v", p)
	}
	if p.ShardFlaps[0] != (ShardFlap{Shard: 2, DownAt: 1, UpAt: 300000}) {
		t.Fatalf("flap = %+v", p.ShardFlaps[0])
	}
	if p.Shard.ReadFaultProb != 0.001 {
		t.Fatalf("base ecc = %v", p.Shard.ReadFaultProb)
	}
	back, err := ParseFleet(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Fatalf("round trip: %+v != %+v", back, p)
	}
}

func TestParseFleetRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"shard=1",    // missing cycle
		"flap=2@9-3", // empty window
		"storm=0@10", // zero ranks
		"blarg=1",    // unknown key
		"shard",      // not key=value
		"flap=2@x-y", // unparsable
	} {
		if _, err := ParseFleet(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
	p, err := ParseFleet("  ")
	if err != nil || !p.Empty() {
		t.Fatalf("blank spec: %+v, %v", p, err)
	}
}

// TestParseRejectsTrailingInput pins the strict clause grammar: input left
// over after a clause's last field is an error naming the clause, in both
// parsers, and a seed renders exactly once.
func TestParseRejectsTrailingInput(t *testing.T) {
	for _, spec := range []string{
		"shard=1@5xyz", "flap=1@5-9-11", "swstall=0+5 junk", "seed=7abc",
		"storm=2@9!", "rank=3@0x", "ecc=0.5%", "stall=5+200+1",
	} {
		_, err := ParseFleet(spec)
		if err == nil {
			t.Errorf("ParseFleet(%q) accepted", spec)
			continue
		}
		if key, _, _ := strings.Cut(spec, "="); !strings.Contains(err.Error(), key) {
			t.Errorf("ParseFleet(%q) = %v, want the error to name the %s clause", spec, err, key)
		}
	}
	// NaN compares false with every bound; Validate must still refuse it.
	for _, spec := range []string{"rank=3@0x", "ecc=0.5%", "stall=5+200+1", "seed=7abc", "ecc=NaN"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	p, err := ParseFleet("seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "seed=7" {
		t.Fatalf(`ParseFleet("seed=7").String() = %q, want the seed once`, got)
	}
}

// FuzzParseFleet: no spec may panic the parser, and any accepted spec must
// survive a render → re-parse round trip unchanged.
func FuzzParseFleet(f *testing.F) {
	for _, spec := range []string{
		"", "seed=7", "shard=1@1;seed=7",
		"seed=7;shard=1@40000;flap=2@1-300000;storm=6@20000;ecc=0.001",
		"swstall=0+500;rank=3@0;stall=5+200",
		"shard=1@5xyz", "flap=1@5-9-11", "swstall=0+5 junk", "seed=7abc",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFleet(spec)
		if err != nil {
			return
		}
		back, err := ParseFleet(p.String())
		if err != nil {
			t.Fatalf("ParseFleet(%q) accepted, but its rendering %q does not re-parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("ParseFleet(%q) round trip through %q:\ngot  %+v\nwant %+v", spec, p.String(), back, p)
		}
	})
}
