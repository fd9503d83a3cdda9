package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// The generators as they stood while every one of them built a COO and went
// through FromCOO. They are kept as the reference the row-writing
// generators are compared against (TestGeneratorsMatchCOOReference).

// refPowerLawGraph generates the adjacency matrix of a scale-free graph via
// preferential attachment (each new vertex attaches to edgesPerNode earlier
// vertices with probability proportional to their degree), a stand-in for
// the paper's graph workloads.
func refPowerLawGraph(nodes, edgesPerNode int, seed int64) *LIL {
	if nodes < 2 || edgesPerNode < 1 {
		panic(fmt.Sprintf("sparse: bad graph shape nodes=%d edges=%d", nodes, edgesPerNode))
	}
	rng := rand.New(rand.NewSource(seed))
	// Two seed edges, then at most two per attachment.
	maxEdges := 2 + 2*(nodes-2)*edgesPerNode
	coo := &COO{Rows: nodes, Cols: nodes, Entries: make([]Coord, 0, maxEdges)}
	seen := newPairSet(maxEdges)
	// Degree-proportional sampling via a repeated-endpoints list.
	endpoints := make([]int, 0, 2*maxEdges)
	add := func(u, v int) {
		if u == v || !seen.add(u, v) {
			return
		}
		coo.Entries = append(coo.Entries, Coord{Row: u, Col: v, Val: 1})
		endpoints = append(endpoints, u, v)
	}
	add(0, 1)
	add(1, 0)
	for v := 2; v < nodes; v++ {
		for e := 0; e < edgesPerNode; e++ {
			var u int
			if len(endpoints) > 0 && rng.Float64() < 0.9 {
				u = endpoints[rng.Intn(len(endpoints))]
			} else {
				u = rng.Intn(v)
			}
			if u == v {
				u = rng.Intn(v)
			}
			add(v, u)
			add(u, v)
		}
	}
	l, err := FromCOO(coo)
	if err != nil {
		panic(err)
	}
	return l
}

// refBanded generates a banded matrix (half-bandwidth band on each side of the
// diagonal), the stand-in for the paper's scientific stencil and matrix-
// inversion workloads.
func refBanded(n, band int, seed int64) *LIL {
	if n <= 0 || band < 0 {
		panic(fmt.Sprintf("sparse: bad banded shape n=%d band=%d", n, band))
	}
	rng := rand.New(rand.NewSource(seed))
	coo := &COO{Rows: n, Cols: n, Entries: make([]Coord, 0, bandedNNZ(n, band))}
	for r := 0; r < n; r++ {
		lo := r - band
		if lo < 0 {
			lo = 0
		}
		hi := r + band
		if hi >= n {
			hi = n - 1
		}
		for c := lo; c <= hi; c++ {
			v := smallVal(rng)
			if v == 0 {
				v = 1
			}
			coo.Entries = append(coo.Entries, Coord{Row: r, Col: c, Val: v})
		}
	}
	l, err := FromCOO(coo)
	if err != nil {
		panic(err)
	}
	return l
}

// refSymmetricDiagDominant generates a symmetric, strictly diagonally dominant
// banded matrix — positive definite by Gershgorin's theorem — the canonical
// operator of discretized differential equations and the input the iterative
// solvers in internal/solver expect.
func refSymmetricDiagDominant(n, band int, seed int64) *LIL {
	if n <= 0 || band < 0 {
		panic(fmt.Sprintf("sparse: bad SPD shape n=%d band=%d", n, band))
	}
	rng := rand.New(rand.NewSource(seed))
	coo := &COO{Rows: n, Cols: n, Entries: make([]Coord, 0, bandedNNZ(n, band))}
	offSum := make([]float32, n)
	for r := 0; r < n; r++ {
		hi := r + band
		if hi >= n {
			hi = n - 1
		}
		for c := r + 1; c <= hi; c++ {
			v := smallVal(rng)
			if v == 0 {
				v = 1
			}
			coo.Entries = append(coo.Entries, Coord{Row: r, Col: c, Val: v})
			coo.Entries = append(coo.Entries, Coord{Row: c, Col: r, Val: v})
			av := v
			if av < 0 {
				av = -av
			}
			offSum[r] += av
			offSum[c] += av
		}
	}
	for r := 0; r < n; r++ {
		coo.Entries = append(coo.Entries, Coord{Row: r, Col: r, Val: offSum[r] + 2})
	}
	l, err := FromCOO(coo)
	if err != nil {
		panic(err)
	}
	return l
}

// The row-writing generators build the reference's matrices bit for bit:
// every draw from rand in the same order, every entry in the same slot. The
// shapes cover the edges (an empty band, a band past the matrix, one row;
// the two-vertex graph, more attachments per vertex than vertices, which
// forces repeat picks) and the sizes the benchmark and Fig. 14 generate.
func TestGeneratorsMatchCOOReference(t *testing.T) {
	type gen struct {
		name     string
		got, ref func(seed int64) *LIL
		seeds    int
	}
	var gens []gen
	band := func(n, b, seeds int) {
		gens = append(gens,
			gen{fmt.Sprintf("Banded(%d,%d)", n, b),
				func(s int64) *LIL { return Banded(n, b, s) },
				func(s int64) *LIL { return refBanded(n, b, s) }, seeds},
			gen{fmt.Sprintf("SymmetricDiagDominant(%d,%d)", n, b),
				func(s int64) *LIL { return SymmetricDiagDominant(n, b, s) },
				func(s int64) *LIL { return refSymmetricDiagDominant(n, b, s) }, seeds})
	}
	graph := func(nodes, edges, seeds int) {
		gens = append(gens, gen{fmt.Sprintf("PowerLawGraph(%d,%d)", nodes, edges),
			func(s int64) *LIL { return PowerLawGraph(nodes, edges, s) },
			func(s int64) *LIL { return refPowerLawGraph(nodes, edges, s) }, seeds})
	}
	for _, s := range [][2]int{{1, 0}, {1, 3}, {9, 0}, {9, 9}, {9, 40}, {50, 1}, {64, 7}} {
		band(s[0], s[1], 20)
	}
	band(375, 24, 4)
	band(3000, 24, 2)
	for _, s := range [][2]int{{2, 1}, {2, 5}, {3, 5}, {5, 9}, {40, 2}, {200, 3}} {
		graph(s[0], s[1], 20)
	}
	graph(375, 6, 4)
	graph(1125, 4, 4)
	graph(2000, 48, 2)
	graph(3000, 6, 2)
	graph(9000, 4, 2)
	for _, g := range gens {
		for seed := int64(1); seed <= int64(g.seeds); seed++ {
			if got, want := lilDigest(g.got(seed)), lilDigest(g.ref(seed)); got != want {
				t.Errorf("%s seed %d: digest %s, reference %s", g.name, seed, got, want)
			}
		}
	}
}
