// Package graph implements graph-analytics algorithms — breadth-first
// search, PageRank, and connected components — formulated as sparse
// matrix-vector products so they run on the Fafnir tree (or any other SpMV
// executor). Graph analytics is one of the sparse-gathering domains the
// paper's genericity claim covers: "the majority of the operations in such
// problems (e.g., 80%) are related to sparse gathering".
package graph

import (
	"fmt"
	"math"

	"fafnir/internal/sim"
	"fafnir/internal/solver"
	"fafnir/internal/sparse"
	"fafnir/internal/tensor"
)

// Graph wraps an adjacency matrix (LIL) with the algorithms' bookkeeping.
// Entry (r, c) non-zero means an edge c -> r (column-major application:
// y = A x propagates values from sources x over edges into destinations y).
type Graph struct {
	adj *sparse.LIL
}

// New wraps a square adjacency matrix.
func New(adj *sparse.LIL) (*Graph, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
	}
	return &Graph{adj: adj}, nil
}

// Nodes reports the vertex count.
func (g *Graph) Nodes() int { return g.adj.Rows }

// Edges reports the edge count (non-zeros).
func (g *Graph) Edges() int { return g.adj.NNZ() }

// Adjacency exposes the wrapped matrix.
func (g *Graph) Adjacency() *sparse.LIL { return g.adj }

// BFSResult is the outcome of a breadth-first search.
type BFSResult struct {
	// Level[v] is the hop distance from the source, or -1 if unreachable.
	Level []int
	// Reached counts reachable vertices (including the source).
	Reached int
	// Frontiers is the number of level-synchronous iterations.
	Frontiers int
	// SpMVCycles accumulates accelerator cycles across frontier expansions.
	SpMVCycles sim.Cycle
}

// BFS runs level-synchronous breadth-first search from src: each frontier
// expansion is one SpMV (frontier indicator vector times the adjacency
// matrix), the canonical linear-algebra BFS formulation.
func (g *Graph) BFS(src int, mul solver.SpMV) (*BFSResult, error) {
	n := g.Nodes()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("graph: source %d outside [0,%d)", src, n)
	}
	res := &BFSResult{Level: make([]int, n), Reached: 1}
	for i := range res.Level {
		res.Level[i] = -1
	}
	res.Level[src] = 0

	frontier := tensor.New(n)
	frontier[src] = 1
	for depth := 1; depth <= n; depth++ {
		y, cyc, err := mul(g.adj, frontier)
		if err != nil {
			return nil, err
		}
		res.SpMVCycles += cyc
		res.Frontiers++

		next := tensor.New(n)
		advanced := false
		for v := range y {
			if y[v] != 0 && res.Level[v] == -1 {
				res.Level[v] = depth
				next[v] = 1
				advanced = true
				res.Reached++
			}
		}
		if !advanced {
			break
		}
		frontier = next
	}
	return res, nil
}

// PageRankResult is the outcome of a PageRank run.
type PageRankResult struct {
	// Scores holds the final rank per vertex (sums to ~1).
	Scores tensor.Vector
	// Iterations is the number of power iterations performed.
	Iterations int
	// Delta is the final L1 change between iterations.
	Delta float64
	// Converged reports whether Delta fell below the tolerance.
	Converged bool
	// SpMVCycles accumulates accelerator cycles.
	SpMVCycles sim.Cycle
}

// PageRank runs power iteration with the given damping factor until the L1
// delta falls below tol or maxIter is reached. The transition matrix is
// derived internally (column-normalized adjacency, dangling columns spread
// uniformly).
func (g *Graph) PageRank(damping float64, tol float64, maxIter int, mul solver.SpMV) (*PageRankResult, error) {
	if damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("graph: damping %v outside (0,1)", damping)
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	n := g.Nodes()
	trans, dangling := g.transition()

	res := &PageRankResult{Scores: tensor.New(n)}
	for i := range res.Scores {
		res.Scores[i] = 1 / float32(n)
	}
	for res.Iterations = 0; res.Iterations < maxIter; res.Iterations++ {
		y, cyc, err := mul(trans, res.Scores)
		if err != nil {
			return nil, err
		}
		res.SpMVCycles += cyc

		// Mass on dangling vertices redistributes uniformly.
		var danglingMass float64
		for _, v := range dangling {
			danglingMass += float64(res.Scores[v])
		}
		base := float32((1-damping)/float64(n)) + float32(damping*danglingMass/float64(n))
		var delta float64
		next := tensor.New(n)
		for i := range next {
			next[i] = base + float32(damping)*y[i]
			delta += math.Abs(float64(next[i] - res.Scores[i]))
		}
		res.Scores = next
		res.Delta = delta
		if delta < tol {
			res.Converged = true
			res.Iterations++
			break
		}
	}
	return res, nil
}

// transition builds the column-normalized transition matrix and the list of
// dangling vertices (zero out-degree columns).
func (g *Graph) transition() (*sparse.LIL, []int) {
	n := g.Nodes()
	outDeg := make([]float32, n)
	for r := range g.adj.ColIdx {
		for i, c := range g.adj.ColIdx[r] {
			v := g.adj.Vals[r][i]
			if v < 0 {
				v = -v
			}
			outDeg[c] += v
		}
	}
	sizes := make([]int, n)
	for r, cols := range g.adj.ColIdx {
		for _, c := range cols {
			if outDeg[c] != 0 {
				sizes[r]++
			}
		}
	}
	trans := sparse.NewLILSized(n, n, sizes)
	for r := range g.adj.ColIdx {
		for i, c := range g.adj.ColIdx[r] {
			if outDeg[c] == 0 {
				continue
			}
			v := g.adj.Vals[r][i]
			if v < 0 {
				v = -v
			}
			trans.ColIdx[r] = append(trans.ColIdx[r], c)
			trans.Vals[r] = append(trans.Vals[r], v/outDeg[c])
		}
	}
	var dangling []int
	for v := 0; v < n; v++ {
		if outDeg[v] == 0 {
			dangling = append(dangling, v)
		}
	}
	return trans, dangling
}

// ComponentsResult is the outcome of a connected-components run.
type ComponentsResult struct {
	// Component[v] is the smallest vertex id in v's component.
	Component []int
	// Count is the number of components.
	Count int
	// Iterations is the number of label-propagation rounds.
	Iterations int
	// SpMVCycles accumulates accelerator cycles.
	SpMVCycles sim.Cycle
}

// ConnectedComponents runs label propagation over the undirected structure
// of the graph: each round every vertex adopts the minimum label among
// itself and its neighbours. The neighbour gather is the sparse step; it is
// executed as one SpMV per round over the 0/1 pattern matrix (the sum
// result identifies which vertices have any neighbour carrying each probe
// label — we use the standard trick of propagating monotone labels until a
// fixpoint).
func (g *Graph) ConnectedComponents(mul solver.SpMV) (*ComponentsResult, error) {
	n := g.Nodes()
	res := &ComponentsResult{Component: make([]int, n)}
	for v := range res.Component {
		res.Component[v] = v
	}
	pattern := g.pattern()

	labels := make([]int, n)
	copy(labels, res.Component)
	for round := 0; round < n; round++ {
		res.Iterations++
		// Gather, per vertex, the minimum neighbour label. The sparse
		// gather itself (which neighbours exist) is one SpMV on the
		// accelerator; the min-combine runs on the gathered lists.
		if _, cyc, err := mul(pattern, indicator(labels, n)); err == nil {
			res.SpMVCycles += cyc
		} else {
			return nil, err
		}
		changed := false
		next := make([]int, n)
		copy(next, labels)
		for r := range pattern.ColIdx {
			for _, c := range pattern.ColIdx[r] {
				if labels[c] < next[r] {
					next[r] = labels[c]
					changed = true
				}
				// Undirected semantics: propagate the other way too.
				if labels[r] < next[c] {
					next[c] = labels[r]
					changed = true
				}
			}
		}
		labels = next
		if !changed {
			break
		}
	}
	res.Component = labels
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	res.Count = len(seen)
	return res, nil
}

// pattern returns the 0/1 structure matrix of the graph.
func (g *Graph) pattern() *sparse.LIL {
	sizes := make([]int, g.adj.Rows)
	for r, cols := range g.adj.ColIdx {
		sizes[r] = len(cols)
	}
	p := sparse.NewLILSized(g.adj.Rows, g.adj.Cols, sizes)
	for r, cols := range g.adj.ColIdx {
		p.ColIdx[r] = append(p.ColIdx[r], cols...)
		for range cols {
			p.Vals[r] = append(p.Vals[r], 1)
		}
	}
	return p
}

// indicator builds a normalized label-indicator vector for the SpMV gather.
func indicator(labels []int, n int) tensor.Vector {
	x := tensor.New(n)
	for v, l := range labels {
		x[v] = float32(l+1) / float32(n+1)
	}
	return x
}
