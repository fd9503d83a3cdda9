// Command fafnir-sim runs one embedding-lookup or SpMV simulation with
// configurable parameters and prints the timing breakdown, memory-system
// statistics, and functional verification result.
//
// Examples:
//
//	fafnir-sim -mode lookup -engine fafnir -batch 32 -q 16 -zipf 1.3
//	fafnir-sim -mode lookup -engine recnmp -batch 16
//	fafnir-sim -mode lookup -engine interactive -batch 4
//	fafnir-sim -mode lookup -faults "rank=3@0;ecc=0.001;seed=9"
//	fafnir-sim -mode spmv -engine twostep -matrix graph -size 8192
//	fafnir-sim -mode graph -algo pagerank -size 4096
//	fafnir-sim -mode solver -algo cg -size 2048
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"fafnir/internal/cpu"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/graph"
	"fafnir/internal/memmap"
	"fafnir/internal/recnmp"
	"fafnir/internal/sim"
	"fafnir/internal/solver"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
	"fafnir/internal/tensordimm"
	"fafnir/internal/twostep"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "fafnir-sim:", err)
	os.Exit(1)
}

// run parses args, validates them before any simulator constructor sees
// them, and runs the selected mode with its summary written to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fafnir-sim", flag.ContinueOnError)
	var (
		mode      = fs.String("mode", "lookup", "lookup, spmv, graph, or solver")
		engine    = fs.String("engine", "fafnir", "lookup: fafnir|interactive|recnmp|tensordimm|cpu; spmv: fafnir|twostep")
		algo      = fs.String("algo", "pagerank", "graph: bfs|pagerank|cc; solver: jacobi|cg")
		batch     = fs.Int("batch", 32, "lookup: queries per batch")
		q         = fs.Int("q", 16, "lookup: indices per query")
		rows      = fs.Int("rows", 1<<17, "lookup: rows per table (32 tables)")
		zipf      = fs.Float64("zipf", 1.3, "lookup: Zipf skew (<=1 for uniform)")
		dedup     = fs.Bool("dedup", true, "lookup (fafnir): eliminate redundant accesses")
		seed      = fs.Int64("seed", 1, "workload seed")
		matrix    = fs.String("matrix", "banded", "spmv: banded|graph|uniform")
		size      = fs.Int("size", 8192, "spmv: matrix dimension")
		faults    = fs.String("faults", "", `lookup (fafnir): fault plan, e.g. "rank=3@0;ecc=0.001;stall=5+200;seed=9"`)
		traceOut  = fs.String("trace-out", "", "lookup: write a Chrome trace-event JSON file of the run (load at ui.perfetto.dev)")
		logFormat = fs.String("log-format", "text", "summary output format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, f := range []struct {
		name  string
		value int
	}{{"rows", *rows}, {"size", *size}, {"batch", *batch}, {"q", *q}} {
		if f.value <= 0 {
			return fmt.Errorf("-%s must be positive, got %d", f.name, f.value)
		}
	}
	if *size < 2 && (*mode == "graph" || *mode == "spmv" && *matrix == "graph") {
		return fmt.Errorf("-size must be at least 2 for a power-law graph, got %d", *size)
	}

	l, err := telemetry.NewLogger(out, *logFormat)
	if err != nil {
		return err
	}
	logger = l
	if *traceOut != "" && *mode != "lookup" {
		return fmt.Errorf("-trace-out is only supported in lookup mode, not %q", *mode)
	}
	switch *mode {
	case "lookup":
		return runLookup(*engine, *batch, *q, *rows, *zipf, *dedup, *seed, *faults, *traceOut)
	case "spmv":
		return runSpMV(*engine, *matrix, *size, *seed)
	case "graph":
		return runGraph(*algo, *size, *seed)
	case "solver":
		return runSolver(*algo, *size, *seed)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// logger carries the -log-format choice to every summary line; the text
// format renders each line byte-identically to the fmt.Printf output it
// replaced, so scripted consumers keep working.
var logger *telemetry.Logger

func logf(format string, args ...any) { logger.Infof(format, args...) }

func usSeconds(c sim.Cycle) float64 { return sim.Seconds(c) * 1e6 }

func runLookup(engine string, batchN, q, rowsPer int, zipf float64, dedup bool, seed int64, faults, traceOut string) error {
	plan, err := fault.Parse(faults)
	if err != nil {
		return err
	}
	if !plan.Empty() && engine != "fafnir" {
		return fmt.Errorf("-faults is only supported by the fafnir engine, not %q", engine)
	}
	mcfg := dram.DDR4()
	layout := memmap.Uniform(mcfg, 512, 32, rowsPer)
	store := embedding.MustStore(layout.TotalRows(), 128, uint64(seed))
	mem := dram.MustSystem(mcfg)

	// Tracing captures per-bank DRAM activity for every engine; the fafnir
	// engine additionally emits PE pipeline lanes from its timed loop.
	var tr *telemetry.Trace
	if traceOut != "" {
		tr = telemetry.NewTrace()
		mem.AttachTracer(tr)
	}

	gcfg := embedding.GeneratorConfig{
		NumQueries: batchN, QuerySize: q, Rows: layout.TotalRows(), Seed: seed,
	}
	if zipf > 1 {
		gcfg.Dist = embedding.Zipf
		gcfg.ZipfS = zipf
	}
	gen, err := embedding.NewGenerator(gcfg)
	if err != nil {
		return err
	}
	b := gen.Batch(tensor.OpSum)
	golden := b.MustGolden(store)

	logf("embedding lookup: engine=%s batch=%d q=%d dedup=%v", engine, batchN, q, dedup)
	var outputs []tensor.Vector
	switch engine {
	case "interactive":
		e, err := fafnir.NewEngine(fafnir.Default())
		if err != nil {
			return err
		}
		res, err := e.InteractiveLookup(store, layout, mem, b)
		if err != nil {
			return err
		}
		logf("  memory   %8.2f us  (%d reads, no dedup in interactive mode)", usSeconds(res.MemCycles), res.MemoryReads)
		logf("  compute  %8.2f us  (comparison-free stage)", usSeconds(res.ComputeCycles))
		logf("  total    %8.2f us  (%d queries served one at a time)", usSeconds(res.TotalCycles), res.HWBatches)
		outputs = res.Outputs
	case "fafnir":
		fcfg := fafnir.Default()
		fcfg.BatchCapacity = batchN
		e, err := fafnir.NewEngine(fcfg)
		if err != nil {
			return err
		}
		if tr != nil {
			e.AttachTracer(tr)
		}
		if !plan.Empty() {
			inj, err := fault.NewInjector(plan, mcfg.TotalRanks())
			if err != nil {
				return err
			}
			mem.AttachFaults(inj)
		}
		res, err := e.TimedLookup(store, layout, mem, b, dedup)
		if err != nil {
			return err
		}
		logf("  memory   %8.2f us  (%d reads, %d bytes)", usSeconds(res.MemCycles), res.MemoryReads, res.BytesRead)
		logf("  compute  %8.2f us  (tree of %d PEs, max occupancy %d)",
			usSeconds(res.ComputeCycles), e.Tree().NumPEs(), res.MaxOccupancy)
		logf("  transfer %8.2f us", usSeconds(res.TransferCycles))
		logf("  total    %8.2f us", usSeconds(res.TotalCycles))
		logf("  PE actions: %d reduces, %d forwards, %d merged duplicates",
			res.PETotals.Reduces, res.PETotals.Forwards, res.PETotals.MergedDuplicates)
		if d := res.Degraded; d != nil {
			logf("  degraded: ranks dark %v, %d reads remapped (%d queries), %d retries costing %d mem cycles",
				d.FailedRanks, d.RemappedReads, d.RemappedQueries, d.Retries, d.RetryCycles)
		}
		outputs = res.Outputs
	case "recnmp":
		e, err := recnmp.NewEngine(recnmp.Default())
		if err != nil {
			return err
		}
		res, err := e.TimedLookup(store, layout, mem, b)
		if err != nil {
			return err
		}
		logf("  memory    %8.2f us  (%d reads, %d cache hits)", usSeconds(res.MemCycles), res.MemoryReads, res.CacheHits)
		logf("  NDP       %8.2f us  (%d reduced at NDP, %d forwarded raw, NDP fraction %.0f%%)",
			usSeconds(res.NDPComputeCycles), res.ReducedAtNDP, res.ForwardedRaw, 100*res.NDPFraction())
		logf("  host      %8.2f us", usSeconds(res.HostComputeCycles))
		logf("  total     %8.2f us", usSeconds(res.TotalCycles))
		outputs = res.Outputs
	case "tensordimm":
		e, err := tensordimm.NewEngine(tensordimm.Default())
		if err != nil {
			return err
		}
		res, err := e.TimedLookup(store, mem, b)
		if err != nil {
			return err
		}
		logf("  memory   %8.2f us  (%d slice reads)", usSeconds(res.MemCycles), res.MemoryReads)
		logf("  compute  %8.2f us", usSeconds(res.ComputeCycles))
		logf("  total    %8.2f us", usSeconds(res.TotalCycles))
		outputs = res.Outputs
	case "cpu":
		e, err := cpu.NewEngine(cpu.Default())
		if err != nil {
			return err
		}
		res, err := e.TimedLookup(store, layout, mem, b)
		if err != nil {
			return err
		}
		logf("  memory   %8.2f us  (%d reads, %d bytes to host)", usSeconds(res.MemCycles), res.MemoryReads, res.BytesToHost)
		logf("  compute  %8.2f us", usSeconds(res.ComputeCycles))
		logf("  total    %8.2f us", usSeconds(res.TotalCycles))
		outputs = res.Outputs
	default:
		return fmt.Errorf("unknown lookup engine %q", engine)
	}
	st := mem.Stats()
	logf("  row buffer: %d hits, %d misses, %d conflicts", st.RowHits, st.RowMisses, st.RowConflicts)
	if i := fafnir.VerifyAgainstGolden(outputs, golden); i >= 0 {
		return fmt.Errorf("query %d mismatches golden", i)
	}
	logf("  functional result verified against golden reference")
	if tr != nil {
		if err := tr.WriteChromeFile(traceOut); err != nil {
			return err
		}
		logf("  trace: %d events written to %s (open at ui.perfetto.dev)", tr.Len(), traceOut)
	}
	return nil
}

// fafnirExecutor wires the Fafnir SpMV engine as a solver/graph executor.
func fafnirExecutor() (solver.SpMV, error) {
	eng, err := spmv.NewEngine(spmv.Default())
	if err != nil {
		return nil, err
	}
	return eng.Schedule().Executor(), nil
}

func runGraph(algo string, size int, seed int64) error {
	adj := sparse.PowerLawGraph(size, 8, seed)
	g, err := graph.New(adj)
	if err != nil {
		return err
	}
	mul, err := fafnirExecutor()
	if err != nil {
		return err
	}
	logf("graph %s: %d nodes, %d edges (power-law), SpMVs on the Fafnir tree", algo, g.Nodes(), g.Edges())
	switch algo {
	case "bfs":
		res, err := g.BFS(0, mul)
		if err != nil {
			return err
		}
		logf("  reached %d vertices in %d frontiers (%.1f us on Fafnir)",
			res.Reached, res.Frontiers, usSeconds(res.SpMVCycles))
	case "pagerank":
		res, err := g.PageRank(0.85, 1e-4, 100, mul)
		if err != nil {
			return err
		}
		logf("  converged=%v after %d iterations, delta %.2e (%.1f us on Fafnir)",
			res.Converged, res.Iterations, res.Delta, usSeconds(res.SpMVCycles))
	case "cc":
		res, err := g.ConnectedComponents(mul)
		if err != nil {
			return err
		}
		logf("  %d components after %d rounds (%.1f us on Fafnir)",
			res.Count, res.Iterations, usSeconds(res.SpMVCycles))
	default:
		return fmt.Errorf("unknown graph algorithm %q", algo)
	}
	return nil
}

func runSolver(algo string, size int, seed int64) error {
	a := sparse.SymmetricDiagDominant(size, 2, seed)
	xTrue := sparse.DenseVector(size, seed+1)
	b, err := a.MulVec(xTrue)
	if err != nil {
		return err
	}
	mul, err := fafnirExecutor()
	if err != nil {
		return err
	}
	opts := solver.Options{MaxIterations: 500, Tolerance: 1e-2}
	logf("solver %s: %dx%d SPD system (nnz %d), SpMVs on the Fafnir tree", algo, size, size, a.NNZ())
	var res *solver.Result
	switch algo {
	case "jacobi":
		res, err = solver.Jacobi(a, b, mul, opts)
	case "cg":
		res, err = solver.CG(a, b, mul, opts)
	default:
		return fmt.Errorf("unknown solver %q", algo)
	}
	if err != nil {
		return err
	}
	logf("  converged=%v after %d iterations, residual %.3g (%d SpMVs, %.1f us on Fafnir)",
		res.Converged, res.Iterations, res.Residual, res.SpMVCount, usSeconds(res.SpMVCycles))
	return nil
}

func runSpMV(engine, matrix string, size int, seed int64) error {
	var m *sparse.LIL
	switch matrix {
	case "banded":
		m = sparse.Banded(size, 32, seed)
	case "graph":
		m = sparse.PowerLawGraph(size, 16, seed)
	case "uniform":
		m = sparse.RandomUniform(size, size, 2e-4, seed)
	default:
		return fmt.Errorf("unknown matrix kind %q", matrix)
	}
	x := sparse.DenseVector(m.Cols, seed+1)
	want, err := m.MulVec(x)
	if err != nil {
		return err
	}
	mem := dram.MustSystem(dram.DDR4())

	logf("SpMV: engine=%s matrix=%s %dx%d nnz=%d density=%.2e",
		engine, matrix, m.Rows, m.Cols, m.NNZ(), m.Density())
	// Both accelerators run the one spmv.Schedule; only its constants, and
	// what the first phase is called, differ.
	var sched spmv.Schedule
	first := "multiply"
	switch engine {
	case "fafnir":
		e, err := spmv.NewEngine(spmv.Default())
		if err != nil {
			return err
		}
		sched = e.Schedule()
	case "twostep":
		e, err := twostep.NewEngine(twostep.Default())
		if err != nil {
			return err
		}
		sched, first = e.Schedule(), "step 1  "
	default:
		return fmt.Errorf("unknown spmv engine %q", engine)
	}
	res, err := sched.Run(m, x, mem)
	if err != nil {
		return err
	}
	if engine == "fafnir" {
		logf("  plan: %s", res.Plan)
	}
	logf("  %s %8.2f us", first, usSeconds(res.MultiplyCycles))
	logf("  merge    %8.2f us", usSeconds(res.MergeCycles))
	logf("  total    %8.2f us  (%d elements streamed)", usSeconds(res.TotalCycles), res.ElementsStreamed)
	if !res.Y.Equal(want) {
		return fmt.Errorf("result mismatches reference SpMV")
	}
	logf("  functional result verified against reference SpMV")
	return nil
}
