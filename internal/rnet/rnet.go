// Package rnet is the simulated in-network reduction subsystem: the fleet's
// shards (or a federation's fleets) become the leaves of a configurable-radix
// reduction tree whose interior "switch" nodes combine partial pools
// asynchronously — a switch fires the moment the last of its children's
// partials lands, with no level barrier, so a fast subtree's reduction
// overlaps a slow sibling's memory time (the FAFNIR argument moved from
// inside one node out into the network between nodes, after Flare's flexible
// in-network allreduce and Tascade's asynchronous reduction trees).
//
// Timing is charged in simulated cycles: every child→parent hop costs
// DefaultLinkCycles, every switch adds DefaultSwitchLatency when it fires,
// and every vector combine performed at a switch costs DefaultCombineCycles
// (fixed model constants, after Flare's tree-latency model). The root's
// completion time is therefore the tree's *critical path* — O(log_radix N)
// switch hops instead of a host-side fold's O(N) serial combine (see
// HostFoldCycles) — and it is the number the router charges as its combine
// phase.
//
// Determinism. The root's values are the serial fold: Reduce folds each
// query's vectors in leaf order, exactly as a host-side fold over the shards
// would, and the switch walk only charges time. A switch combines a query
// once for every live child holding it beyond the first, so the switches'
// combines add up to the serial fold's. The embedding store holds
// integer-valued float32 rows (docs/ARCHITECTURE.md §13), so re-association
// is exact and a switch-by-switch evaluation would produce the same bits.
// Switches are walked serially in node-ID order on the caller's goroutine —
// the asynchrony is simulated (each switch's Fire/Done cycles), not
// re-enacted by the host: a reduction is a few microseconds of host work,
// and the coarse units above it (shards, fleets) already run concurrently
// (docs/ARCHITECTURE.md §9).
//
// Degradation. A missing leaf (a shard lost mid-combine) simply never
// arrives: presence is computed bottom-up, a switch waits only for children
// whose subtrees hold at least one live leaf, and a fully-dark subtree is
// skipped without blocking its siblings. The router layers its
// DegradedReport accounting on top; rnet itself only reports how many
// children were missing at each switch.
package rnet

import (
	"fmt"

	"fafnir/internal/sim"
	"fafnir/internal/tensor"
)

// The default switch fan-in and the fixed switch timing, in simulated cycles
// of the fleet clock: the child→parent partial-pool transfer per hop, the
// per-switch firing cost, and the cost of one vector combine at a switch.
// The link hop dominates (a serialized partial-pool transfer between nodes);
// the per-combine cost matches the host CPU's per-vector handle cost so the
// rnet-vs-host comparison isolates topology, not ALU speed.
const (
	DefaultRadix         = 2
	DefaultLinkCycles    = 64
	DefaultSwitchLatency = 16
	DefaultCombineCycles = 8
)

// Config parameterizes one reduction tree. The zero Radix selects its
// default.
type Config struct {
	// Radix is the switch fan-in: every interior node reduces up to Radix
	// children. 0 selects DefaultRadix; 1 is invalid (a chain reduces
	// nothing).
	Radix int
	// Stalls maps interior node IDs (see Tree.Interior) to extra cycles
	// added to that switch's firing, modelling a slow or degraded switch
	// (the fault plan's swstall clause). Nil injects nothing.
	Stalls map[int]sim.Cycle
}

func (c *Config) fillDefaults() {
	if c.Radix == 0 {
		c.Radix = DefaultRadix
	}
}

// Validate reports a descriptive error naming the offending field for an
// unusable configuration.
func (c Config) Validate() error {
	if c.Radix < 0 || c.Radix == 1 {
		return fmt.Errorf("rnet: Config.Radix = %d: want 0 (the default of 2) or >= 2", c.Radix)
	}
	for id, st := range c.Stalls {
		if id < 0 {
			return fmt.Errorf("rnet: Config.Stalls[%d]: negative switch node", id)
		}
		if st == 0 {
			return fmt.Errorf("rnet: Config.Stalls[%d] = 0: a stall must add cycles", id)
		}
	}
	return nil
}

// node is one tree position. IDs are dense: [0, leaves) are the leaf slots,
// interior switches follow in bottom-up level order, the root is last.
type node struct {
	children []int32 // interior only, ascending
	level    int     // 0 at leaves
}

// Tree is an immutable radix reduction topology over a fixed number of
// leaves, reusable across Reduce calls. Build once per fleet.
type Tree struct {
	cfg    Config
	leaves int
	nodes  []node // dense by ID; nodes[len-1] is the root
	depth  int    // interior levels (0 for a single-leaf tree)
}

// NewTree builds the reduction topology for the given leaf count:
// consecutive runs of Radix nodes per switch, repeated bottom-up until one
// root remains. Leaf i is node ID i, matching the caller's shard order, so
// ascending-child folds reproduce a serial fold's shard order.
func NewTree(leaves int, cfg Config) (*Tree, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if leaves < 1 {
		return nil, fmt.Errorf("rnet: %d leaves: need at least 1", leaves)
	}
	t := &Tree{cfg: cfg, leaves: leaves}
	t.nodes = make([]node, leaves, 2*leaves)
	cur := make([]int32, leaves)
	for i := range cur {
		cur[i] = int32(i)
	}
	for level := 1; len(cur) > 1; level++ {
		next := cur[:0:0]
		for lo := 0; lo < len(cur); lo += cfg.Radix {
			hi := min(lo+cfg.Radix, len(cur))
			id := int32(len(t.nodes))
			t.nodes = append(t.nodes, node{
				children: append([]int32(nil), cur[lo:hi]...),
				level:    level,
			})
			next = append(next, id)
		}
		cur = next
		t.depth = level
	}
	for id := range cfg.Stalls {
		if id < t.leaves || id >= len(t.nodes) {
			return nil, fmt.Errorf("rnet: stall on node %d: interior switches are [%d,%d)", id, t.leaves, len(t.nodes))
		}
	}
	return t, nil
}

// Leaves reports the leaf count the tree was built for.
func (t *Tree) Leaves() int { return t.leaves }

// Interior reports the number of interior switch nodes.
func (t *Tree) Interior() int { return len(t.nodes) - t.leaves }

// Depth reports the number of switch levels between a leaf and the root.
func (t *Tree) Depth() int { return t.depth }

// Config returns the tree's (default-filled) configuration.
func (t *Tree) Config() Config { return t.cfg }

// Partial is one leaf's contribution to a reduction: a dense per-query
// vector slice (nil entries mean the leaf holds nothing for that query) and
// the fleet-clock cycle at which the partial is ready to enter the network —
// the shard's own completion time, or its failover replacement's.
type Partial struct {
	// Vectors is dense over the batch's queries; a nil entry contributes
	// nothing to that query.
	Vectors []tensor.Vector
	// Ready is when the partial leaves its shard, in fleet-clock cycles.
	Ready sim.Cycle
}

// SwitchSpan is one interior switch's firing record, for trace emission and
// fault forensics. Spans are reported in node-ID order (bottom-up levels,
// left to right), which is also the evaluation order.
type SwitchSpan struct {
	// Node is the switch's tree node ID (in [Tree.Leaves, Tree.Leaves+Tree.Interior)).
	Node int32
	// Level is the switch's height above the leaves (1 = first combine row).
	Level int
	// Fire is when the last contributing child's partial landed (after its
	// link hop); Done is Fire plus switch latency, combine work, and any
	// injected stall.
	Fire, Done sim.Cycle
	// Combines is how many vector combines this switch performed.
	Combines int
	// Missing is how many of this switch's children never arrived (their
	// whole subtree was dark).
	Missing int
}

// Result is one reduction's outcome.
type Result struct {
	// Outputs is dense over the batch's queries: the fully reduced vector,
	// the caller's to mutate (it never aliases a leaf partial), or nil when
	// no live leaf contributed to the query.
	Outputs []tensor.Vector
	// CriticalPath is the root switch's completion time: the cycle at which
	// the reduced pool is ready to transfer to the host. Zero when every
	// leaf was missing.
	CriticalPath sim.Cycle
	// Combines is the total vector combines performed across all switches;
	// it equals the combine count a serial host fold would have performed.
	Combines int
	// Fires is how many switches fired (had at least one live child).
	Fires int
	// MissingChildren is the total count, across all switches, of children
	// whose subtrees were entirely dark.
	MissingChildren int
	// LinkTransfers is the number of child→parent partial-pool hops taken.
	LinkTransfers int
	// Spans records each firing switch in node-ID order.
	Spans []SwitchSpan
}

// Reduce runs one reduction: leaves[i] is leaf i's partial (nil for a leaf
// that was lost and never produced one), numQueries sizes the dense output.
// Every leaf partial present must have len(Vectors) == numQueries. The
// returned outputs are freshly allocated and never alias leaf vectors, so
// callers may mutate them (mean finalization) freely.
func (t *Tree) Reduce(op tensor.ReduceOp, numQueries int, leaves []*Partial) (*Result, error) {
	return t.ReduceInto(op, numQueries, leaves, make([]tensor.Vector, numQueries), new(Scratch))
}

// Scratch is the working state of ReduceInto — the per-node readiness and
// presence, the per-query holds, and the result with its span list — kept
// by a caller across reductions so that a steady-state reduction allocates
// nothing. The zero value is ready; a Scratch serves one reduction at a time.
type Scratch struct {
	started []bool // query -> its fold has begun
	done    []sim.Cycle
	present []bool
	holds   []bool
	res     Result
}

// ReduceInto is Reduce into caller-provided storage. out (one slot per
// query) receives the outputs: slot qi is overwritten with query qi's fold,
// reusing the slot's backing array when it has the room (a nil or short
// slot is allocated), or set to nil when no live leaf holds the query. The
// slots must not alias any leaf vector. The result lives in sc and is valid
// until sc's next reduction; its Outputs is out.
func (t *Tree) ReduceInto(op tensor.ReduceOp, numQueries int, leaves []*Partial, out []tensor.Vector, sc *Scratch) (*Result, error) {
	if len(leaves) != t.leaves {
		return nil, fmt.Errorf("rnet: %d partials for a %d-leaf tree", len(leaves), t.leaves)
	}
	if len(out) != numQueries {
		return nil, fmt.Errorf("rnet: %d output slots for %d queries", len(out), numQueries)
	}
	for i, p := range leaves {
		if p != nil && len(p.Vectors) != numQueries {
			return nil, fmt.Errorf("rnet: leaf %d has %d query slots, want %d", i, len(p.Vectors), numQueries)
		}
	}
	sc.reset(len(t.nodes), numQueries)
	res := &sc.res
	res.Outputs = out
	// The values are the serial fold: each query's vectors in leaf order.
	started := sc.started
	for i, p := range leaves {
		if p == nil {
			continue
		}
		for qi, v := range p.Vectors {
			switch {
			case v == nil:
			case !started[qi]:
				out[qi] = append(out[qi][:0], v...)
				started[qi] = true
			default:
				if err := op.Apply(out[qi], v); err != nil {
					return nil, fmt.Errorf("rnet: query %d, leaf %d: %w", qi, i, err)
				}
			}
		}
	}
	for qi, ok := range started {
		if !ok {
			out[qi] = nil
		}
	}
	t.charge(numQueries, leaves, sc)
	return res, nil
}

// reset sizes the scratch for a tree of nodes nodes over numQueries queries
// and zeroes it, keeping its arrays when they are large enough.
func (sc *Scratch) reset(nodes, numQueries int) {
	sc.started = resize(sc.started, numQueries)
	sc.done = resize(sc.done, nodes)
	sc.present = resize(sc.present, nodes)
	sc.holds = resize(sc.holds, nodes*numQueries)
	clear(sc.started)
	clear(sc.done)
	clear(sc.present)
	clear(sc.holds)
	sc.res = Result{Spans: sc.res.Spans[:0]}
}

// resize returns s with length n, reallocating only when s is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// charge walks the switches bottom-up and records the reduction's time in
// sc.res: each switch's fire and done cycles, the combines it performs, the
// children it misses, and the root's critical path. IDs ascend bottom-up, so
// one pass settles each switch after all of its children; a subtree with no
// live leaf never fires and never blocks its siblings. A switch combines a
// query once for every live child holding it beyond the first, which is
// where a serial fold's combines happen in the tree.
func (t *Tree) charge(numQueries int, leaves []*Partial, sc *Scratch) {
	res, done, present := &sc.res, sc.done, sc.present
	holds := sc.holds // node ID x query: subtree has a vector for it
	for i, p := range leaves {
		if p == nil {
			continue
		}
		present[i], done[i] = true, p.Ready
		for qi, v := range p.Vectors {
			holds[i*numQueries+qi] = v != nil
		}
	}
	for id := t.leaves; id < len(t.nodes); id++ {
		n := &t.nodes[id]
		sp := SwitchSpan{Node: int32(id), Level: n.level}
		row := holds[id*numQueries : (id+1)*numQueries]
		for _, c := range n.children {
			if !present[c] {
				sp.Missing++
				continue
			}
			present[id] = true
			sp.Fire = sim.Max(sp.Fire, done[c]+DefaultLinkCycles)
			for qi, h := range holds[int(c)*numQueries : (int(c)+1)*numQueries] {
				if h && row[qi] {
					sp.Combines++
				}
				row[qi] = row[qi] || h
			}
		}
		if !present[id] {
			continue
		}
		sp.Done = sp.Fire + DefaultSwitchLatency + sim.Cycle(sp.Combines)*DefaultCombineCycles + t.cfg.Stalls[id]
		done[id] = sp.Done
		res.Fires++
		res.Combines += sp.Combines
		res.MissingChildren += sp.Missing
		res.LinkTransfers += len(n.children) - sp.Missing
		res.Spans = append(res.Spans, sp)
	}
	if root := len(t.nodes) - 1; present[root] {
		res.CriticalPath = done[root]
	}
}

// HostFoldCycles is the analytic critical path of a host-side serial combine
// over the same leaves — the O(Shards) design the tree replaces — for
// apples-to-apples benchmark comparison: the host starts when the slowest
// live partial lands (one hop away) and then performs every combine serially.
func (t *Tree) HostFoldCycles(leaves []*Partial, combines int) sim.Cycle {
	var ready sim.Cycle
	for _, p := range leaves {
		if p != nil {
			ready = sim.Max(ready, p.Ready)
		}
	}
	return ready + DefaultLinkCycles + sim.Cycle(combines)*DefaultCombineCycles
}
