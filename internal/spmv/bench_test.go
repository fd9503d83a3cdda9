package spmv_test

import (
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
)

// BenchmarkMultiply times one Fafnir product on fresh DDR4 per matrix class:
// spmv_iterate's three prebuilt matrices (generated at that workload's seed
// 1) and Fig. 14's sparse uniform RO matrix.
func BenchmarkMultiply(b *testing.B) {
	e, err := spmv.NewEngine(spmv.Default())
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		build func() *sparse.LIL
	}{
		{"banded_3000_24", func() *sparse.LIL { return sparse.Banded(3000, 24, 1001) }},
		{"graph_3000_6", func() *sparse.LIL { return sparse.PowerLawGraph(3000, 6, 1002) }},
		{"graph_9000_4", func() *sparse.LIL { return sparse.PowerLawGraph(9000, 4, 1003) }},
		{"uniform_32000_RO", func() *sparse.LIL { return sparse.RandomUniform(32000, 32000, 2e-4, 47) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := bc.build()
			x := sparse.DenseVector(m.Cols, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Multiply(m, x, dram.MustSystem(dram.DDR4())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
