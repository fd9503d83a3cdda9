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
// LinkCycles, every switch adds SwitchLatency when it fires, and every
// vector combine performed at a switch costs CombineCycles. The root's
// completion time is therefore the tree's *critical path* — O(log_radix N)
// switch hops instead of a host-side fold's O(N) serial combine (see
// HostFoldCycles) — and it is the number the router charges as its combine
// phase.
//
// Determinism. A switch's output is a pure function of its children's
// outputs, and each switch folds its children in ascending child order —
// exactly the left-to-right shard order of a serial fold, just
// re-associated. The embedding store holds integer-valued float32 rows
// (docs/ARCHITECTURE.md §13), so re-association is exact and tree outputs
// are bit-identical to the serial fold. Switches evaluate serially in
// node-ID order on the caller's goroutine — the asynchrony is simulated (each
// switch's Fire/Done cycles), not re-enacted by the host: a reduction is a few
// microseconds of host work, and the coarse units above it (shards, fleets)
// already run concurrently (docs/ARCHITECTURE.md §9).
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

// Default switch fan-in and timing, in simulated cycles of the fleet clock.
// The link hop dominates (a serialized partial-pool transfer between nodes);
// the per-combine cost matches the host CPU's per-vector handle cost so the
// rnet-vs-host comparison isolates topology, not ALU speed.
const (
	DefaultRadix         = 2
	DefaultLinkCycles    = 64
	DefaultSwitchLatency = 16
	DefaultCombineCycles = 8
)

// Config parameterizes one reduction tree. The zero value of Radix and of
// every cycle field selects its default.
type Config struct {
	// Radix is the switch fan-in: every interior node reduces up to Radix
	// children. 0 selects DefaultRadix; 1 is invalid (a chain reduces
	// nothing).
	Radix int
	// LinkCycles is the child→parent partial-pool transfer cost per hop.
	LinkCycles sim.Cycle
	// SwitchLatency is the fixed per-switch firing cost.
	SwitchLatency sim.Cycle
	// CombineCycles is the cost of one vector combine at a switch.
	CombineCycles sim.Cycle
	// Stalls maps interior node IDs (see Tree.Interior) to extra cycles
	// added to that switch's firing, modelling a slow or degraded switch
	// (the fault plan's swstall clause). Nil injects nothing.
	Stalls map[int]sim.Cycle
}

func (c *Config) fillDefaults() {
	if c.Radix == 0 {
		c.Radix = DefaultRadix
	}
	if c.LinkCycles == 0 {
		c.LinkCycles = DefaultLinkCycles
	}
	if c.SwitchLatency == 0 {
		c.SwitchLatency = DefaultSwitchLatency
	}
	if c.CombineCycles == 0 {
		c.CombineCycles = DefaultCombineCycles
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
	// owned by the caller (never aliasing a leaf partial), or nil when no
	// live leaf contributed to the query.
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

// reduceState is the dense per-node working state of one Reduce call.
type reduceState struct {
	outs    [][]tensor.Vector // node ID -> per-query vectors (leaves alias input)
	owned   [][]bool          // node ID -> per-query "vector is tree scratch"
	done    []sim.Cycle       // node ID -> completion cycle
	present []bool            // node ID -> subtree holds >= 1 live leaf
	spans   []SwitchSpan      // interior spans, indexed by id - leaves
}

// Reduce runs one reduction: leaves[i] is leaf i's partial (nil for a leaf
// that was lost and never produced one), numQueries sizes the dense output.
// Every leaf partial present must have len(Vectors) == numQueries. The
// returned outputs never alias leaf vectors, so callers may mutate them
// (mean finalization) freely.
func (t *Tree) Reduce(op tensor.ReduceOp, numQueries int, leaves []*Partial) (*Result, error) {
	if len(leaves) != t.leaves {
		return nil, fmt.Errorf("rnet: %d partials for a %d-leaf tree", len(leaves), t.leaves)
	}
	for i, p := range leaves {
		if p != nil && len(p.Vectors) != numQueries {
			return nil, fmt.Errorf("rnet: leaf %d has %d query slots, want %d", i, len(p.Vectors), numQueries)
		}
	}
	st := &reduceState{
		outs:    make([][]tensor.Vector, len(t.nodes)),
		owned:   make([][]bool, len(t.nodes)),
		done:    make([]sim.Cycle, len(t.nodes)),
		present: make([]bool, len(t.nodes)),
		spans:   make([]SwitchSpan, t.Interior()),
	}
	for i, p := range leaves {
		if p == nil {
			continue
		}
		st.present[i] = true
		st.outs[i] = p.Vectors
		st.done[i] = p.Ready
	}
	// IDs ascend bottom-up, so one pass settles each switch's presence (a
	// subtree with no live leaf never fires and never blocks its siblings)
	// and evaluates it after all of its children.
	for id := t.leaves; id < len(t.nodes); id++ {
		for _, c := range t.nodes[id].children {
			if st.present[c] {
				st.present[id] = true
				break
			}
		}
		if !st.present[id] {
			continue
		}
		if err := t.evalSwitch(op, int32(id), st); err != nil {
			return nil, err
		}
	}
	return t.assemble(numQueries, st), nil
}

// evalSwitch fires one interior switch: fold each query's child vectors in
// ascending child order, charge link/latency/combine cycles, and record the
// span. In-place combines reuse child scratch no other node reads again.
func (t *Tree) evalSwitch(op tensor.ReduceOp, id int32, st *reduceState) error {
	n := &t.nodes[id]
	var (
		fire     sim.Cycle
		combines int
		missing  int
		outs     []tensor.Vector
		owned    []bool
	)
	for _, c := range n.children {
		if !st.present[c] {
			missing++
			continue
		}
		fire = sim.Max(fire, st.done[c]+t.cfg.LinkCycles)
		if outs == nil {
			// First live child: adopt its pool. Leaf pools are borrowed
			// (owned stays false); interior pools transfer ownership.
			outs = append(outs[:0], st.outs[c]...)
			owned = make([]bool, len(outs))
			copy(owned, st.owned[c])
			continue
		}
		for qi, w := range st.outs[c] {
			if w == nil {
				continue
			}
			switch {
			case outs[qi] == nil:
				outs[qi] = w
				owned[qi] = len(st.owned[c]) > 0 && st.owned[c][qi]
			default:
				if !owned[qi] {
					outs[qi] = outs[qi].Clone()
					owned[qi] = true
				}
				if err := op.Apply(outs[qi], w); err != nil {
					return fmt.Errorf("rnet: switch %d query %d: %w", id, qi, err)
				}
				combines++
			}
		}
	}
	done := fire + t.cfg.SwitchLatency + sim.Cycle(combines)*t.cfg.CombineCycles
	if stall, ok := t.cfg.Stalls[int(id)]; ok {
		done += stall
	}
	st.outs[id] = outs
	st.owned[id] = owned
	st.done[id] = done
	st.spans[int(id)-t.leaves] = SwitchSpan{
		Node:     id,
		Level:    n.level,
		Fire:     fire,
		Done:     done,
		Combines: combines,
		Missing:  missing,
	}
	return nil
}

// assemble folds the per-node records into the Result in node-ID order and
// clones any root output that still aliases a leaf partial
// (single-contributor queries never combined, so their vector is still the
// shard's own).
func (t *Tree) assemble(numQueries int, st *reduceState) *Result {
	root := int32(len(t.nodes) - 1)
	res := &Result{Outputs: make([]tensor.Vector, numQueries)}
	for qi, v := range st.outs[root] {
		if v == nil {
			continue
		}
		if len(st.owned[root]) > 0 && st.owned[root][qi] {
			res.Outputs[qi] = v
		} else {
			res.Outputs[qi] = v.Clone()
		}
	}
	if st.present[root] {
		res.CriticalPath = st.done[root]
	}
	for i := range st.spans {
		id := int32(t.leaves + i)
		if !st.present[id] {
			continue
		}
		sp := st.spans[i]
		res.Fires++
		res.Combines += sp.Combines
		res.MissingChildren += sp.Missing
		res.LinkTransfers += len(t.nodes[id].children) - sp.Missing
		res.Spans = append(res.Spans, sp)
	}
	return res
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
	return ready + t.cfg.LinkCycles + sim.Cycle(combines)*t.cfg.CombineCycles
}
