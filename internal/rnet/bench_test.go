package rnet

import (
	"fmt"
	"math/rand"
	"testing"

	"fafnir/internal/tensor"
)

// BenchmarkRnetCombine reduces one full hardware batch (32 queries, every
// shard contributing a partial to every query) across growing fleets and
// reports the simulated combine critical path of both paths side by side:
// combine_path_cycles is the rnet tree's root completion (grows with
// log_radix(shards) switch levels), host_fold_cycles the analytic serial host
// combine over the same partials (grows linearly in shards). The wall-clock
// ns/op measures the simulation itself.
func BenchmarkRnetCombine(b *testing.B) {
	const queries = 32
	for _, shards := range []int{2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := Config{Radix: 2}
			tr, err := NewTree(shards, cfg)
			if err != nil {
				b.Fatalf("NewTree: %v", err)
			}
			rng := rand.New(rand.NewSource(42))
			in := make([]*Partial, shards)
			for l := range in {
				in[l] = &Partial{Vectors: make([]tensor.Vector, queries)}
				for q := range in[l].Vectors {
					v := tensor.New(32)
					for i := range v {
						v[i] = float32(rng.Intn(16) - 8)
					}
					in[l].Vectors[q] = v
				}
			}
			var res *Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = tr.Reduce(tensor.OpSum, queries, in)
				if err != nil {
					b.Fatalf("Reduce: %v", err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(res.CriticalPath), "combine_path_cycles")
			b.ReportMetric(float64(tr.HostFoldCycles(in, res.Combines)), "host_fold_cycles")
		})
	}
}
