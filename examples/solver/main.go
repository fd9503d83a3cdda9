// Solver: a discretized differential-equation solve (the paper's "matrix
// inversion and differential-equation solvers" domain) running its sparse
// matrix-vector products on the Fafnir tree. A symmetric positive-definite
// banded system — the shape a 1-D diffusion stencil produces — is solved
// with Jacobi and with conjugate gradient, and the accelerator cycles each
// method consumed are reported.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"fafnir/internal/sim"
	"fafnir/internal/solver"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/tensor"
)

const n = 2048

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// The operator: symmetric, strictly diagonally dominant, banded.
	a := sparse.SymmetricDiagDominant(n, 2, 13)
	xTrue := sparse.DenseVector(n, 14)
	b, err := a.MulVec(xTrue)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "system: %dx%d, nnz=%d (banded SPD stencil)\n", n, n, a.NNZ())

	// Every SpMV goes through the Fafnir tree simulator.
	eng, err := spmv.NewEngine(spmv.Default())
	if err != nil {
		return err
	}
	onFafnir := eng.Schedule().Executor()

	opts := solver.Options{MaxIterations: 400, Tolerance: 1e-2}

	jac, err := solver.Jacobi(a, b, onFafnir, opts)
	if err != nil {
		return err
	}
	report(w, "Jacobi", jac, xTrue)

	cg, err := solver.CG(a, b, onFafnir, opts)
	if err != nil {
		return err
	}
	report(w, "CG", cg, xTrue)

	fmt.Fprintf(w, "\nCG needed %.1fx fewer SpMVs and %.1fx fewer accelerator cycles\n",
		float64(jac.SpMVCount)/float64(cg.SpMVCount),
		float64(jac.SpMVCycles)/float64(cg.SpMVCycles))
	return nil
}

func report(w io.Writer, name string, r *solver.Result, xTrue tensor.Vector) {
	maxErr := 0.0
	for i := range xTrue {
		d := float64(r.X[i] - xTrue[i])
		if d < 0 {
			d = -d
		}
		if d > maxErr {
			maxErr = d
		}
	}
	fmt.Fprintf(w, "%-7s converged=%v iterations=%d residual=%.3g maxErr=%.3g  (%d SpMVs, %d cycles = %.1f us on Fafnir)\n",
		name, r.Converged, r.Iterations, r.Residual, maxErr,
		r.SpMVCount, r.SpMVCycles, sim.Seconds(r.SpMVCycles)*1e6)
}
