package rnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fafnir/internal/sim"
	"fafnir/internal/tensor"
)

// testCfg is the base tree configuration: radix 2, default timing.
func testCfg() Config {
	return Config{Radix: 2}
}

// intVector draws a dim-4 vector of small integers — the store's
// value class, for which every association order is exact.
func intVector(rng *rand.Rand) tensor.Vector {
	v := tensor.New(4)
	for i := range v {
		v[i] = float32(rng.Intn(16) - 8)
	}
	return v
}

// genLeaves draws a leaf set: nilLeaf marks whole leaves missing, nilVec
// the per-query holes inside present leaves.
func genLeaves(rng *rand.Rand, leaves, queries int, nilLeaf, nilVec float64) []*Partial {
	out := make([]*Partial, leaves)
	for l := range out {
		if rng.Float64() < nilLeaf {
			continue
		}
		p := &Partial{Vectors: make([]tensor.Vector, queries), Ready: sim.Cycle(rng.Intn(10_000))}
		for q := range p.Vectors {
			if rng.Float64() >= nilVec {
				p.Vectors[q] = intVector(rng)
			}
		}
		out[l] = p
	}
	return out
}

// hostFold is the reference: clone the first present vector in leaf order,
// apply the rest left to right — exactly a host-side serial fold.
func hostFold(t *testing.T, op tensor.ReduceOp, queries int, leaves []*Partial) []tensor.Vector {
	t.Helper()
	out := make([]tensor.Vector, queries)
	for _, p := range leaves {
		if p == nil {
			continue
		}
		for q, v := range p.Vectors {
			if v == nil {
				continue
			}
			if out[q] == nil {
				out[q] = v.Clone()
			} else if err := op.Apply(out[q], v); err != nil {
				t.Fatalf("Apply: %v", err)
			}
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"radix one", func(c *Config) { c.Radix = 1 }, "Radix"},
		{"negative radix", func(c *Config) { c.Radix = -2 }, "Radix"},
		{"negative stall node", func(c *Config) { c.Stalls = map[int]sim.Cycle{-1: 5} }, "Stalls"},
		{"zero stall", func(c *Config) { c.Radix = 2; c.Stalls = map[int]sim.Cycle{2: 0} }, "Stalls"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config: %v", err)
	}
}

func TestNewTreeRejects(t *testing.T) {
	// The zero config is the default tree, not a disabled one.
	tr, err := NewTree(4, Config{})
	if err != nil || tr.Config().Radix != DefaultRadix || tr.Interior() != 3 {
		t.Fatalf("NewTree zero config = %+v, %v; want the default radix-2 tree", tr, err)
	}
	if _, err := NewTree(0, testCfg()); err == nil {
		t.Fatal("NewTree with 0 leaves succeeded")
	}
	cfg := testCfg()
	cfg.Stalls = map[int]sim.Cycle{99: 10}
	if _, err := NewTree(4, cfg); err == nil || !strings.Contains(err.Error(), "stall") {
		t.Fatalf("NewTree out-of-range stall = %v, want stall error", err)
	}
}

func TestTreeShape(t *testing.T) {
	cases := []struct {
		leaves, radix, interior, depth int
	}{
		{1, 2, 0, 0},
		{2, 2, 1, 1},
		{4, 2, 3, 2},
		{8, 2, 7, 3},
		{9, 2, 5 + 3 + 2 + 1, 4}, // 9 -> 5 -> 3 -> 2 -> 1
		{8, 4, 2 + 1, 2},         // 8 -> 2 -> 1
		{64, 4, 16 + 4 + 1, 3},
		{5, 8, 1, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%dx%d", tc.leaves, tc.radix), func(t *testing.T) {
			cfg := testCfg()
			cfg.Radix = tc.radix
			tr, err := NewTree(tc.leaves, cfg)
			if err != nil {
				t.Fatalf("NewTree: %v", err)
			}
			if tr.Leaves() != tc.leaves || tr.Interior() != tc.interior || tr.Depth() != tc.depth {
				t.Fatalf("shape = (%d leaves, %d interior, depth %d), want (%d, %d, %d)",
					tr.Leaves(), tr.Interior(), tr.Depth(), tc.leaves, tc.interior, tc.depth)
			}
			// Every node except the root must be the child of exactly one
			// switch, and that switch must come later in ID order (Reduce's
			// single bottom-up pass depends on it).
			seen := make(map[int32]int)
			for id := tr.leaves; id < len(tr.nodes); id++ {
				for _, c := range tr.nodes[id].children {
					seen[c]++
					if int(c) >= id {
						t.Fatalf("switch %d has child %d at or above its own ID", id, c)
					}
				}
			}
			for id := 0; id < len(tr.nodes)-1; id++ {
				if seen[int32(id)] != 1 {
					t.Fatalf("node %d covered %d times", id, seen[int32(id)])
				}
			}
			if got := tr.Config().Radix; got != tc.radix {
				t.Fatalf("Config().Radix = %d", got)
			}
		})
	}
}

func TestReduceMatchesHostFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []tensor.ReduceOp{tensor.OpSum, tensor.OpMin, tensor.OpMax, tensor.OpMean}
	for _, radix := range []int{2, 3, 4} {
		for _, leaves := range []int{1, 2, 5, 8, 16} {
			cfg := testCfg()
			cfg.Radix = radix
			tr, err := NewTree(leaves, cfg)
			if err != nil {
				t.Fatalf("NewTree: %v", err)
			}
			for trial := 0; trial < 10; trial++ {
				op := ops[trial%len(ops)]
				in := genLeaves(rng, leaves, 6, 0.2, 0.3)
				res, err := tr.Reduce(op, 6, in)
				if err != nil {
					t.Fatalf("Reduce: %v", err)
				}
				want := hostFold(t, op, 6, in)
				if !reflect.DeepEqual(res.Outputs, want) {
					t.Fatalf("radix %d leaves %d trial %d: tree fold diverges from host fold", radix, leaves, trial)
				}
			}
		}
	}
}

func TestReduceOutputsAreOwned(t *testing.T) {
	tr, err := NewTree(2, testCfg())
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	// Leaf 1 missing: query 0's output passes through leaf 0 uncombined and
	// must still be a private copy.
	leaf := &Partial{Vectors: []tensor.Vector{{1, 2, 3, 4}}}
	res, err := tr.Reduce(tensor.OpSum, 1, []*Partial{leaf, nil})
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	res.Outputs[0][0] = 99
	if leaf.Vectors[0][0] != 1 {
		t.Fatal("root output aliases the leaf partial")
	}
}

// TestReduceProperties pins the fold and the switch walk against each other
// over random trees, holes and ops: (a) no output aliases a leaf vector, a
// single-contributor query's included; (b) each switch combines a query once
// per live child holding it beyond the first; (c) the switches' combines add
// up to the serial fold's, one per contributing leaf beyond the first.
func TestReduceProperties(t *testing.T) {
	const queries = 5
	rng := rand.New(rand.NewSource(11))
	ops := []tensor.ReduceOp{tensor.OpSum, tensor.OpMin, tensor.OpMax, tensor.OpMean}
	for radix := 2; radix <= 4; radix++ {
		for leaves := 1; leaves <= 17; leaves++ {
			tr, err := NewTree(leaves, Config{Radix: radix})
			if err != nil {
				t.Fatalf("NewTree: %v", err)
			}
			for _, op := range ops {
				in := genLeaves(rng, leaves, queries, 0.25, 0.4)
				before := make([][]tensor.Vector, leaves)
				for l, p := range in {
					if p != nil {
						before[l] = cloneAll(p.Vectors)
					}
				}
				res, err := tr.Reduce(op, queries, in)
				if err != nil {
					t.Fatalf("Reduce: %v", err)
				}
				name := fmt.Sprintf("radix %d leaves %d %v", radix, leaves, op)

				// (b) per switch, from the subtree contents alone.
				var holds func(id int32, q int) bool
				holds = func(id int32, q int) bool {
					if int(id) < leaves {
						return in[id] != nil && in[id].Vectors[q] != nil
					}
					for _, c := range tr.nodes[id].children {
						if holds(c, q) {
							return true
						}
					}
					return false
				}
				for _, sp := range res.Spans {
					want := 0
					for q := 0; q < queries; q++ {
						n := 0
						for _, c := range tr.nodes[sp.Node].children {
							if holds(c, q) {
								n++
							}
						}
						want += max(n-1, 0)
					}
					if sp.Combines != want {
						t.Fatalf("%s: switch %d combines %d, want %d", name, sp.Node, sp.Combines, want)
					}
				}

				// (c) in total, from the leaves alone.
				want := 0
				for q := 0; q < queries; q++ {
					n := 0
					for l := 0; l < leaves; l++ {
						if holds(int32(l), q) {
							n++
						}
					}
					want += max(n-1, 0)
				}
				if res.Combines != want {
					t.Fatalf("%s: %d combines, want %d", name, res.Combines, want)
				}

				// (a) scribble over every output; the leaves must not move.
				for _, v := range res.Outputs {
					for i := range v {
						v[i] = 1e9
					}
				}
				for l, p := range in {
					if p != nil && !reflect.DeepEqual(p.Vectors, before[l]) {
						t.Fatalf("%s: writing the outputs changed leaf %d", name, l)
					}
				}
			}
		}
	}
}

// cloneAll deep-copies a dense per-query vector slice, keeping nil holes.
func cloneAll(vs []tensor.Vector) []tensor.Vector {
	out := make([]tensor.Vector, len(vs))
	for i, v := range vs {
		if v != nil {
			out[i] = v.Clone()
		}
	}
	return out
}

func TestReduceTiming(t *testing.T) {
	// 4 leaves, radix 2: switches 4=(0,1), 5=(2,3), root 6=(4,5); a hop
	// costs 64 cycles, a firing 16, a combine 8.
	tr, err := NewTree(4, testCfg())
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	in := make([]*Partial, 4)
	for l, ready := range []sim.Cycle{100, 40, 60, 80} {
		in[l] = &Partial{Vectors: []tensor.Vector{{1}}, Ready: ready}
	}
	res, err := tr.Reduce(tensor.OpSum, 1, in)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	// Switch 4 fires at max(100,40)+64 = 164, done 164+16+8 = 188.
	// Switch 5 fires at max(60,80)+64 = 144, done 168.
	// Root fires at max(188,168)+64 = 252, done 252+16+8 = 276.
	if got := res.CriticalPath; got != 276 {
		t.Fatalf("CriticalPath = %d, want 276", got)
	}
	if res.Combines != 3 || res.Fires != 3 || res.LinkTransfers != 6 || res.MissingChildren != 0 {
		t.Fatalf("stats = %+v", res)
	}
	wantSpans := []SwitchSpan{
		{Node: 4, Level: 1, Fire: 164, Done: 188, Combines: 1},
		{Node: 5, Level: 1, Fire: 144, Done: 168, Combines: 1},
		{Node: 6, Level: 2, Fire: 252, Done: 276, Combines: 1},
	}
	if !reflect.DeepEqual(res.Spans, wantSpans) {
		t.Fatalf("Spans = %+v, want %+v", res.Spans, wantSpans)
	}
	// A slow sibling subtree must not delay the fast one's switch: span for
	// switch 5 fired at 144 even though leaf 0 was not ready until 100.
	if res.Spans[1].Fire != 144 {
		t.Fatalf("sibling switch stalled: fired %d", res.Spans[1].Fire)
	}
}

func TestReduceMissingLeafDoesNotBlock(t *testing.T) {
	tr, err := NewTree(4, testCfg())
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	in := []*Partial{
		{Vectors: []tensor.Vector{{1}}, Ready: 50},
		nil, // lost mid-combine
		{Vectors: []tensor.Vector{{2}}, Ready: 60},
		{Vectors: []tensor.Vector{{4}}, Ready: 70},
	}
	res, err := tr.Reduce(tensor.OpSum, 1, in)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if got := res.Outputs[0][0]; got != 7 {
		t.Fatalf("output = %v, want 7", got)
	}
	if res.MissingChildren != 1 {
		t.Fatalf("MissingChildren = %d, want 1", res.MissingChildren)
	}
	// Switch 4 fires on leaf 0 alone at 50+64=114, done 114+16 (no
	// combine). It must not wait for the dead leaf 1.
	if res.Spans[0].Fire != 114 || res.Spans[0].Done != 130 || res.Spans[0].Combines != 0 {
		t.Fatalf("switch 4 span = %+v", res.Spans[0])
	}
}

func TestReduceDarkSubtreeSkipped(t *testing.T) {
	tr, err := NewTree(4, testCfg())
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	// Both leaves of switch 4 lost: the whole left subtree is dark; the
	// root fires on switch 5 alone and records one missing child.
	in := []*Partial{
		nil, nil,
		{Vectors: []tensor.Vector{{2}}, Ready: 10},
		{Vectors: []tensor.Vector{{3}}, Ready: 10},
	}
	res, err := tr.Reduce(tensor.OpSum, 1, in)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if got := res.Outputs[0][0]; got != 5 {
		t.Fatalf("output = %v, want 5", got)
	}
	if res.Fires != 2 || res.MissingChildren != 1 {
		t.Fatalf("Fires = %d MissingChildren = %d, want 2, 1", res.Fires, res.MissingChildren)
	}
}

func TestReduceAllLeavesMissing(t *testing.T) {
	tr, err := NewTree(4, testCfg())
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	res, err := tr.Reduce(tensor.OpSum, 2, make([]*Partial, 4))
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if res.CriticalPath != 0 || res.Fires != 0 {
		t.Fatalf("all-dark reduce = %+v", res)
	}
	for qi, v := range res.Outputs {
		if v != nil {
			t.Fatalf("query %d produced output from no leaves", qi)
		}
	}
}

func TestReduceSingleLeaf(t *testing.T) {
	tr, err := NewTree(1, testCfg())
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	leaf := &Partial{Vectors: []tensor.Vector{{3, 4}}, Ready: 77}
	res, err := tr.Reduce(tensor.OpSum, 1, []*Partial{leaf})
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if res.CriticalPath != 77 || len(res.Spans) != 0 {
		t.Fatalf("single-leaf reduce = %+v", res)
	}
	res.Outputs[0][0] = 9
	if leaf.Vectors[0][0] != 3 {
		t.Fatal("single-leaf output aliases the partial")
	}
}

func TestReduceStalls(t *testing.T) {
	cfg := testCfg()
	base, err := NewTree(4, cfg)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	cfg.Stalls = map[int]sim.Cycle{4: 1000} // first interior switch
	stalled, err := NewTree(4, cfg)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	// Equal ready times put the stalled switch on the critical path.
	in := genLeaves(rand.New(rand.NewSource(3)), 4, 2, 0, 0)
	for _, p := range in {
		p.Ready = 0
	}
	r0, err := base.Reduce(tensor.OpSum, 2, in)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	r1, err := stalled.Reduce(tensor.OpSum, 2, in)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if !reflect.DeepEqual(r0.Outputs, r1.Outputs) {
		t.Fatal("a stalled switch changed outputs; stalls must only delay")
	}
	if r1.CriticalPath != r0.CriticalPath+1000 {
		t.Fatalf("stalled critical path = %d, want %d", r1.CriticalPath, r0.CriticalPath+1000)
	}
	// The stalled switch's sibling still fires on time.
	if r1.Spans[1].Fire != r0.Spans[1].Fire {
		t.Fatal("stall leaked into the sibling subtree")
	}
}

func TestReduceErrors(t *testing.T) {
	tr, err := NewTree(2, testCfg())
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	if _, err := tr.Reduce(tensor.OpSum, 1, make([]*Partial, 3)); err == nil {
		t.Fatal("wrong partial count accepted")
	}
	bad := []*Partial{{Vectors: make([]tensor.Vector, 2)}, nil}
	if _, err := tr.Reduce(tensor.OpSum, 1, bad); err == nil {
		t.Fatal("wrong query-slot count accepted")
	}
	// Dimension mismatch fails the fold, naming the query and the leaf.
	mismatched := []*Partial{
		{Vectors: []tensor.Vector{{1, 2}}},
		{Vectors: []tensor.Vector{{1}}},
	}
	if _, err := tr.Reduce(tensor.OpSum, 1, mismatched); err == nil || !strings.Contains(err.Error(), "query 0, leaf 1") {
		t.Fatalf("mismatched dims = %v, want an error naming query 0, leaf 1", err)
	}
}

func TestHostFoldCycles(t *testing.T) {
	tr, err := NewTree(4, testCfg())
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	in := []*Partial{
		{Ready: 100}, nil, {Ready: 40}, {Ready: 80},
	}
	// The slowest partial, one 64-cycle hop, then six 8-cycle combines.
	if got := tr.HostFoldCycles(in, 6); got != 100+64+48 {
		t.Fatalf("HostFoldCycles = %d, want 212", got)
	}
}

// TestCriticalPathLogGrowth is the acceptance check behind
// BenchmarkRnetCombine: at 8+ leaves the tree's combine critical path must
// track O(log_radix N) switch levels while the host fold's serial combine
// tracks O(N), so doubling the fleet adds one level to the tree but doubles
// the host's combine term.
func TestCriticalPathLogGrowth(t *testing.T) {
	cfg := testCfg()
	const queries = 32 // a full hardware batch: every query holds a partial on every shard
	path := func(leaves int) (tree, host sim.Cycle) {
		tr, err := NewTree(leaves, cfg)
		if err != nil {
			t.Fatalf("NewTree: %v", err)
		}
		in := make([]*Partial, leaves)
		for l := range in {
			in[l] = &Partial{Vectors: make([]tensor.Vector, queries), Ready: 0}
			for q := range in[l].Vectors {
				in[l].Vectors[q] = tensor.Vector{1, 2, 3, 4}
			}
		}
		res, err := tr.Reduce(tensor.OpSum, queries, in)
		if err != nil {
			t.Fatalf("Reduce: %v", err)
		}
		return res.CriticalPath, tr.HostFoldCycles(in, res.Combines)
	}
	tree8, host8 := path(8)
	tree64, host64 := path(64)
	if tree8 >= host8 || tree64 >= host64 {
		t.Fatalf("tree path not below host fold: 8 leaves %d vs %d, 64 leaves %d vs %d",
			tree8, host8, tree64, host64)
	}
	// 8 -> 64 leaves is 8x the serial combine work but only 2x the tree
	// depth (3 -> 6 levels); the measured growth ratios must reflect that.
	treeGrowth := float64(tree64) / float64(tree8)
	hostGrowth := float64(host64) / float64(host8)
	if treeGrowth > 2.5 {
		t.Fatalf("tree critical path grew %.2fx from 8 to 64 leaves; want ~log growth (<= 2.5x)", treeGrowth)
	}
	if hostGrowth < 4 {
		t.Fatalf("host fold grew %.2fx from 8 to 64 leaves; want ~linear growth (>= 4x)", hostGrowth)
	}
}
