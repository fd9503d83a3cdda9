package serve_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fafnir"
	"fafnir/internal/embedding"
	"fafnir/internal/serve"
)

// BenchmarkCoalescer measures Submit throughput end to end (queueing, batch
// assembly, the engine lookup, and demux) at fixed client parallelism. The
// clients=1 case is the no-contention floor; higher counts show how much the
// shared-flusher design costs — or saves, once coalescing folds concurrent
// requests into shared hardware batches. b.RunParallel cannot express
// parallelism below GOMAXPROCS, so the workers are explicit goroutines
// draining an atomic iteration counter.
func BenchmarkCoalescer(b *testing.B) {
	for _, clients := range clientCounts() {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			sys, err := fafnir.NewSystem(fafnir.SystemConfig{})
			if err != nil {
				b.Fatal(err)
			}
			pool, err := sys.GenerateBatch(256, 17)
			if err != nil {
				b.Fatal(err)
			}
			co, err := serve.NewCoalescer(serve.Config{MaxQueued: 4096}, sys, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer co.Close(context.Background())

			ctx := context.Background()
			var next atomic.Int64
			var failed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						q := pool.Queries[i%int64(len(pool.Queries))]
						if _, err := co.Submit(ctx, serve.Request{Op: pool.Op, Queries: []embedding.Query{q}}); err != nil {
							failed.Add(1)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if failed.Load() > 0 {
				b.Fatalf("%d submissions failed", failed.Load())
			}
			if m := co.Metrics(); m.Batches.Value() > 0 {
				b.ReportMetric(float64(m.Queries.Value())/float64(m.Batches.Value()), "queries/batch")
			}
		})
	}
}

// BenchmarkCoalescerCached is BenchmarkCoalescer with the hot-embedding
// cache enabled. The 256-query pool cycles, so after the first lap most
// index reads are served from the cache and the hardware batch shrinks;
// the reported hit ratio shows how much of the stream the cache absorbed.
func BenchmarkCoalescerCached(b *testing.B) {
	for _, clients := range clientCounts() {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			sys, err := fafnir.NewSystem(fafnir.SystemConfig{})
			if err != nil {
				b.Fatal(err)
			}
			pool, err := sys.GenerateBatch(256, 17)
			if err != nil {
				b.Fatal(err)
			}
			co, err := serve.NewCoalescer(serve.Config{MaxQueued: 4096, CacheBytes: 8 << 20}, sys, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer co.Close(context.Background())

			ctx := context.Background()
			var next atomic.Int64
			var failed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						q := pool.Queries[i%int64(len(pool.Queries))]
						if _, err := co.Submit(ctx, serve.Request{Op: pool.Op, Queries: []embedding.Query{q}}); err != nil {
							failed.Add(1)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if failed.Load() > 0 {
				b.Fatalf("%d submissions failed", failed.Load())
			}
			m := co.Metrics()
			if m.Batches.Value() > 0 {
				b.ReportMetric(float64(m.Queries.Value())/float64(m.Batches.Value()), "queries/batch")
			}
			if total := m.CacheHits.Value() + m.CacheMisses.Value(); total > 0 {
				b.ReportMetric(float64(m.CacheHits.Value())/float64(total), "hit-ratio")
			}
		})
	}
}

// clientCounts returns 1, 4, and GOMAXPROCS without duplicates.
func clientCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}
