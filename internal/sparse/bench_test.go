package sparse

import (
	"math/rand"
	"testing"
)

func BenchmarkMulVecLIL(b *testing.B) {
	m := RandomUniform(4096, 4096, 1e-3, 1)
	x := DenseVector(4096, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MulVec(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFromCOO builds a power-law graph's 64k triplets from an order no
// generator produces, so neither counting sort finds its input presorted.
func BenchmarkFromCOO(b *testing.B) {
	coo := toShuffledCOO(PowerLawGraph(4096, 8, 4), rand.New(rand.NewSource(5)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromCOO(coo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColumnChunk(b *testing.B) {
	m := RandomUniform(4096, 8192, 1e-3, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ColumnChunk(2048, 4096)
	}
}
