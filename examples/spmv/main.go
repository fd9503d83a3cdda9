// SpMV: PageRank-style power iteration on a synthetic power-law graph,
// with every iteration's sparse matrix-vector product executed on the
// Fafnir tree (vectorized mode, Section IV-D) and, for comparison, on the
// Two-Step NDP accelerator. Demonstrates the "other sparse problems"
// genericity claim: the same 31-PE hardware that pools embeddings runs
// graph analytics.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"fafnir"
)

const (
	nodes      = 4096
	iterations = 5
	damping    = 0.85
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	sys, err := fafnir.NewSystem(fafnir.SystemConfig{RowsPerTable: 1024})
	if err != nil {
		return err
	}
	graph := fafnir.GraphMatrix(nodes, 8, 11)
	fmt.Fprintf(w, "power-law graph: %d nodes, %d edges (density %.2e)\n",
		nodes, graph.NNZ(), graph.Density())

	// Column-normalize into a transition matrix (still LIL).
	normalizeColumns(graph)

	rank := make(fafnir.Vector, nodes)
	for i := range rank {
		rank[i] = 1.0 / nodes
	}

	var fafCycles, tsCycles uint64
	for it := 0; it < iterations; it++ {
		fres, err := sys.SpMV(graph, rank)
		if err != nil {
			return err
		}
		fafCycles += uint64(fres.TotalCycles)

		tres, err := sys.SpMVTwoStep(graph, rank)
		if err != nil {
			return err
		}
		tsCycles += uint64(tres.TotalCycles)

		// rank <- damping*A*rank + (1-damping)/N
		next := fres.Y
		for i := range next {
			next[i] = damping*next[i] + (1-damping)/nodes
		}
		delta := l1diff(rank, next)
		rank = next
		fmt.Fprintf(w, "iteration %d: plan [%s], delta %.2e\n", it, fres.Plan, delta)
	}

	top, val := argmax(rank)
	fmt.Fprintf(w, "\nhighest-rank node: %d (score %.5f)\n", top, val)
	fmt.Fprintf(w, "Fafnir total: %d cycles (%.1f us); Two-Step: %d cycles (%.1f us); speedup %.2fx\n",
		fafCycles, fafnir.CyclesToSeconds(fafCycles)*1e6,
		tsCycles, fafnir.CyclesToSeconds(tsCycles)*1e6,
		float64(tsCycles)/float64(fafCycles))
	return nil
}

// normalizeColumns scales every column of the adjacency matrix to sum to 1.
func normalizeColumns(m *fafnir.Matrix) {
	colSum := make([]float32, m.Cols)
	for r := range m.ColIdx {
		for i, c := range m.ColIdx[r] {
			colSum[c] += float32(math.Abs(float64(m.Vals[r][i])))
		}
	}
	for r := range m.ColIdx {
		for i, c := range m.ColIdx[r] {
			if colSum[c] != 0 {
				m.Vals[r][i] /= colSum[c]
			}
		}
	}
}

func l1diff(a, b fafnir.Vector) float64 {
	var s float64
	for i := range a {
		s += math.Abs(float64(a[i] - b[i]))
	}
	return s
}

func argmax(v fafnir.Vector) (int, float32) {
	best, bv := 0, v[0]
	for i, x := range v {
		if x > bv {
			best, bv = i, x
		}
	}
	return best, bv
}
