package fafnir

import (
	"strings"
	"testing"
)

func TestTreePaperConfiguration(t *testing.T) {
	// 32 ranks with 1PE:2R -> 16 leaves -> 31 PEs in 5 levels, matching
	// "consisting of 32 ranks, and hence 31 processing elements".
	tree, err := NewTree(Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.NumPEs(); got != 31 {
		t.Fatalf("NumPEs = %d, want 31", got)
	}
	if got := tree.Depth(); got != 5 {
		t.Fatalf("Depth = %d, want 5", got)
	}
	if tree.Root().Parent != nil {
		t.Fatal("root has a parent")
	}
}

func TestTreeKinds(t *testing.T) {
	// Four DIMM/rank nodes of 7 PEs each plus one channel node of 3 PEs.
	tree, err := NewTree(Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.CountKind(KindDIMMRank); got != 28 {
		t.Fatalf("DIMM/rank PEs = %d, want 28", got)
	}
	if got := tree.CountKind(KindChannel); got != 3 {
		t.Fatalf("channel PEs = %d, want 3", got)
	}
	if KindDIMMRank.String() != "dimm/rank" || KindChannel.String() != "channel" {
		t.Fatal("kind names wrong")
	}
}

func TestTreeConnections(t *testing.T) {
	// The paper's formula: (2m-2) tree links for m=32 attach points plus c
	// host links. Our count separates 32 rank links + 30 PE uplinks = 62 =
	// 2*32-2.
	tree, err := NewTree(Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Connections(4); got != 66 {
		t.Fatalf("Connections(4) = %d, want 66", got)
	}
}

func TestTreeLeafOfRank(t *testing.T) {
	tree, err := NewTree(Default())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 32; r++ {
		leaf, err := tree.LeafOfRank(r)
		if err != nil {
			t.Fatal(err)
		}
		if !leaf.IsLeaf() {
			t.Fatalf("rank %d mapped to internal PE", r)
		}
		found := false
		for _, rr := range append(leaf.RanksA, leaf.RanksB...) {
			if rr == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("leaf of rank %d does not list it", r)
		}
	}
	if _, err := tree.LeafOfRank(32); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := tree.LeafOfRank(-1); err == nil {
		t.Fatal("negative rank accepted")
	}
}

func TestTreeLeafInputSplit(t *testing.T) {
	// 1PE:2R: one rank per input.
	tree, err := NewTree(Default())
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := tree.LeafOfRank(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaf.RanksA) != 1 || len(leaf.RanksB) != 1 {
		t.Fatalf("leaf inputs %v | %v", leaf.RanksA, leaf.RanksB)
	}
}

func TestTreeOddLeafCount(t *testing.T) {
	// 6 ranks, fan-in 2 -> 3 leaves; the odd leaf carries up: 3 leaf PEs +
	// 1 + 1 internal = 5 PEs.
	cfg := Default()
	cfg.NumRanks = 6
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.NumPEs(); got != 5 {
		t.Fatalf("NumPEs = %d, want 5", got)
	}
	// Every rank still reaches the root.
	for r := 0; r < 6; r++ {
		leaf, err := tree.LeafOfRank(r)
		if err != nil {
			t.Fatal(err)
		}
		n := leaf
		for n.Parent != nil {
			n = n.Parent
		}
		if n != tree.Root() {
			t.Fatalf("rank %d not connected to root", r)
		}
	}
}

func TestTreeFanIn4(t *testing.T) {
	cfg := Default()
	cfg.LeafFanIn = 4
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 8 leaves -> 8+4+2+1 = 15 PEs.
	if got := tree.NumPEs(); got != 15 {
		t.Fatalf("NumPEs = %d, want 15", got)
	}
	leaf, err := tree.LeafOfRank(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaf.RanksA) != 2 || len(leaf.RanksB) != 2 {
		t.Fatalf("fan-in 4 leaf inputs %v | %v", leaf.RanksA, leaf.RanksB)
	}
}

func TestTreeFanIn1(t *testing.T) {
	cfg := Default()
	cfg.NumRanks = 4
	cfg.LeafFanIn = 1
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.NumPEs(); got != 7 {
		t.Fatalf("NumPEs = %d, want 7", got)
	}
	leaf, err := tree.LeafOfRank(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaf.RanksA) != 1 || len(leaf.RanksB) != 0 {
		t.Fatalf("fan-in 1 leaf inputs %v | %v", leaf.RanksA, leaf.RanksB)
	}
}

func TestTreeRejectsInvalidConfig(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumRanks = 0 },
		func(c *Config) { c.LeafFanIn = 0 },
		func(c *Config) { c.NumRanks = 10; c.LeafFanIn = 4 },
		func(c *Config) { c.BatchCapacity = 0 },
		func(c *Config) { c.VectorDim = 0 },
		func(c *Config) { c.Op = 99 },
	}
	for i, m := range bad {
		cfg := Default()
		m(&cfg)
		if _, err := NewTree(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestTreeString(t *testing.T) {
	cfg := Default()
	cfg.NumRanks = 4
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := tree.String()
	if !strings.Contains(s, "level 0:") || !strings.Contains(s, "level 1:") {
		t.Fatalf("String missing levels:\n%s", s)
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Default()
	if cfg.NumLeaves() != 16 {
		t.Fatalf("NumLeaves = %d", cfg.NumLeaves())
	}
	if cfg.VectorBytes() != 512 {
		t.Fatalf("VectorBytes = %d", cfg.VectorBytes())
	}
}

func TestTableIVStageLatency(t *testing.T) {
	l := TableIV()
	// compare(12) + reduce-header(16) = 28, since reduce beats forward.
	if got := l.StageLatency(); got != 28 {
		t.Fatalf("StageLatency = %d, want 28", got)
	}
}

func TestTreeDOT(t *testing.T) {
	cfg := Default()
	cfg.NumRanks = 4
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dot := tree.DOT()
	for _, want := range []string{"digraph fafnir", "rank0", "pe0", "host", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}
