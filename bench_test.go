// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per exhibit, wrapping the internal/exp harness), plus
// microbenchmarks of the simulator's hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// The same exhibits render as text tables via: go run ./cmd/fafnir-bench
package fafnir

import (
	"strconv"
	"testing"

	"fafnir/internal/exp"
)

// benchExp runs one registered experiment per iteration and surfaces a named
// scalar from its rows as a benchmark metric.
func benchExp(b *testing.B, id string, metric func(rep *exp.Report) (string, float64)) {
	b.Helper()
	var last *exp.Report
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	if last != nil && metric != nil {
		name, v := metric(last)
		b.ReportMetric(v, name)
	}
}

// benchPhases times an exhibit's input construction ("generate") and its run
// over already built inputs ("execute") as separate sub-benchmarks, and
// surfaces the named scalar on the execute line. The SpMV-class exhibits
// use it: building their matrices is host work the engines are not about.
// The caller builds the inputs once before calling, so either phase can be
// selected alone.
func benchPhases(b *testing.B, generate func() error, execute func() (*exp.Report, error), metric func(rep *exp.Report) (string, float64)) {
	b.Helper()
	b.Run("generate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := generate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute", func(b *testing.B) {
		var last *exp.Report
		for i := 0; i < b.N; i++ {
			rep, err := execute()
			if err != nil {
				b.Fatal(err)
			}
			last = rep
		}
		if last != nil {
			name, v := metric(last)
			b.ReportMetric(v, name)
		}
	})
}

// lastCell parses the numeric tail cell of the last row.
func lastCell(rep *exp.Report, col int) float64 {
	cell := rep.Rows[len(rep.Rows)-1][col]
	if n := len(cell); n > 0 && cell[n-1] == '%' {
		cell = cell[:n-1]
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkFig03UniqueIndices(b *testing.B) {
	benchExp(b, "fig3", func(rep *exp.Report) (string, float64) {
		return "unique%_B32", lastCell(rep, 3)
	})
}

func BenchmarkTable1Buffers(b *testing.B) {
	benchExp(b, "table1", func(rep *exp.Report) (string, float64) {
		return "PE_KB_B32", lastCell(rep, 1)
	})
}

func BenchmarkTable4Latencies(b *testing.B) {
	benchExp(b, "table4", func(rep *exp.Report) (string, float64) {
		return "stage_cycles", lastCell(rep, 1)
	})
}

func BenchmarkFig09SpmvPlan(b *testing.B) {
	benchExp(b, "fig9", func(rep *exp.Report) (string, float64) {
		return "merges_20M_V2048", lastCell(rep, 5)
	})
}

func BenchmarkFig11SingleQuery(b *testing.B) {
	benchExp(b, "fig11", func(rep *exp.Report) (string, float64) {
		return "fafnir_total_us", lastCell(rep, 3)
	})
}

func BenchmarkFig12EndToEnd(b *testing.B) {
	benchExp(b, "fig12", func(rep *exp.Report) (string, float64) {
		return "fafnir_speedup_32r", lastCell(rep, 4)
	})
}

func BenchmarkFig13BatchScaling(b *testing.B) {
	benchExp(b, "fig13", func(rep *exp.Report) (string, float64) {
		return "fafnir_speedup_B32", lastCell(rep, 3)
	})
}

func BenchmarkFig14Spmv(b *testing.B) {
	suite := exp.Fig14Suite()
	benchPhases(b,
		func() error { suite = exp.Fig14Suite(); return nil },
		func() (*exp.Report, error) { return exp.Fig14On(suite) },
		func(rep *exp.Report) (string, float64) { return "speedup_RO", lastCell(rep, 5) })
}

func BenchmarkFig15MemorySavings(b *testing.B) {
	benchExp(b, "fig15", func(rep *exp.Report) (string, float64) {
		return "savings%_B32", lastCell(rep, 3)
	})
}

func BenchmarkTable5FPGA(b *testing.B) {
	benchExp(b, "table5", nil)
}

func BenchmarkTable6ASIC(b *testing.B) {
	benchExp(b, "table6", nil)
}

func BenchmarkFig16Power(b *testing.B) {
	benchExp(b, "fig16", nil)
}

// --- microbenchmarks of the simulator's hot paths ---

func BenchmarkLookupBatch32(b *testing.B) {
	sys, err := NewSystem(SystemConfig{RowsPerTable: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	batch, err := sys.GenerateBatch(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	// One lookup first grows the engine's working state, which at
	// -benchtime 1x the one timed lookup would otherwise measure.
	if _, err := sys.Lookup(batch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Lookup(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpMVGraph4k(b *testing.B) {
	sys, err := NewSystem(SystemConfig{RowsPerTable: 1024})
	if err != nil {
		b.Fatal(err)
	}
	m := GraphMatrix(4096, 8, 3)
	x := DenseOperand(4096, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SpMV(m, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFanIn(b *testing.B)       { benchExp(b, "abl-fanin", nil) }
func BenchmarkAblationPage(b *testing.B)        { benchExp(b, "abl-page", nil) }
func BenchmarkAblationCache(b *testing.B)       { benchExp(b, "abl-cache", nil) }
func BenchmarkAblationSkew(b *testing.B)        { benchExp(b, "abl-skew", nil) }
func BenchmarkAblationOccupancy(b *testing.B)   { benchExp(b, "abl-occupancy", nil) }
func BenchmarkAblationInteractive(b *testing.B) { benchExp(b, "abl-interactive", nil) }
func BenchmarkAblationHBM(b *testing.B)         { benchExp(b, "abl-hbm", nil) }
func BenchmarkAblationLoad(b *testing.B)        { benchExp(b, "abl-load", nil) }
func BenchmarkAblationScaleOut(b *testing.B)    { benchExp(b, "abl-scaleout", nil) }

func BenchmarkAppGraph(b *testing.B) {
	adj := exp.AppGraphInput()
	benchPhases(b,
		func() error { adj = exp.AppGraphInput(); return nil },
		func() (*exp.Report, error) { return exp.AppGraphOn(adj) },
		func(rep *exp.Report) (string, float64) { return "cc_speedup", lastCell(rep, 4) })
}

func BenchmarkAppSolver(b *testing.B) {
	a, rhs, err := exp.AppSolverInput()
	if err != nil {
		b.Fatal(err)
	}
	benchPhases(b,
		func() error { a, rhs, err = exp.AppSolverInput(); return err },
		func() (*exp.Report, error) { return exp.AppSolverOn(a, rhs) },
		func(rep *exp.Report) (string, float64) { return "cg_speedup", lastCell(rep, 5) })
}

func BenchmarkFig06BatchExample(b *testing.B) {
	benchExp(b, "fig6", func(rep *exp.Report) (string, float64) {
		return "root_outputs", lastCell(rep, 5)
	})
}
