package spmv_test

import (
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/tensor"
	"fafnir/internal/twostep"
)

// BenchmarkMultiply times one product on fresh DDR4 per matrix class:
// Fafnir on spmv_iterate's three prebuilt matrices (generated at that
// workload's seed 1) and Fig. 14's sparse uniform RO matrix, and Two-Step,
// which drops zero partials, on the graph of shortest rows.
func BenchmarkMultiply(b *testing.B) {
	fe, err := spmv.NewEngine(spmv.Default())
	if err != nil {
		b.Fatal(err)
	}
	te, err := twostep.NewEngine(twostep.Default())
	if err != nil {
		b.Fatal(err)
	}
	fafnir := func(m *sparse.LIL, x tensor.Vector) error {
		_, err := fe.Multiply(m, x, dram.MustSystem(dram.DDR4()))
		return err
	}
	for _, bc := range []struct {
		name     string
		build    func() *sparse.LIL
		multiply func(*sparse.LIL, tensor.Vector) error
	}{
		{"banded_3000_24", func() *sparse.LIL { return sparse.Banded(3000, 24, 1001) }, fafnir},
		{"graph_3000_6", func() *sparse.LIL { return sparse.PowerLawGraph(3000, 6, 1002) }, fafnir},
		{"graph_9000_4", func() *sparse.LIL { return sparse.PowerLawGraph(9000, 4, 1003) }, fafnir},
		{"uniform_32000_RO", func() *sparse.LIL { return sparse.RandomUniform(32000, 32000, 2e-4, 47) }, fafnir},
		{"twostep_graph_9000_4", func() *sparse.LIL { return sparse.PowerLawGraph(9000, 4, 1003) }, func(m *sparse.LIL, x tensor.Vector) error {
			_, err := te.Multiply(m, x, dram.MustSystem(dram.DDR4()))
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := bc.build()
			x := sparse.DenseVector(m.Cols, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.multiply(m, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
