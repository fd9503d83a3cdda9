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
	"fafnir/internal/tensor"
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

// coldServe builds what BenchmarkCoalescerCold and TestColdSubmitAllocs
// drive — benchmark/'s serve_cold without the HTTP layer: the default system
// under an 8 MiB cache and a pool of 8-query x 16-index requests drawn
// uniformly over all 4 Mi rows, so nearly every consult misses and every
// fill, once the cache is full, evicts.
func coldServe(tb testing.TB) (*serve.Coalescer, []serve.Request) {
	tb.Helper()
	sys, err := fafnir.NewSystem(fafnir.SystemConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	// Seeded as the default system's GenerateBatch(n, 31), but uniform.
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: 8 * 512, QuerySize: 16, Rows: sys.TotalRows(), Seed: 1_000_003 + 31,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pool := gen.Batch(tensor.OpSum)
	co, err := serve.NewCoalescer(serve.Config{MaxQueued: 4096, CacheBytes: 8 << 20}, sys, nil)
	if err != nil {
		tb.Fatal(err)
	}
	reqs := make([]serve.Request, 0, 512)
	for q := 0; q < len(pool.Queries); q += 8 {
		reqs = append(reqs, serve.Request{Op: pool.Op, Queries: pool.Queries[q : q+8]})
	}
	return co, reqs
}

// BenchmarkCoalescerCold is one client submitting serve_cold-shaped requests
// (see coldServe): every flush reads a full 128-row batch and the cache fill
// copies each of those rows into a CLOCK slot.
func BenchmarkCoalescerCold(b *testing.B) {
	co, reqs := coldServe(b)
	defer co.Close(context.Background())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := co.Submit(ctx, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := co.Metrics()
	if total := m.CacheHits.Value() + m.CacheMisses.Value(); total > 0 {
		b.ReportMetric(float64(m.CacheHits.Value())/float64(total), "hit-ratio")
	}
}

// lookupReply is a clean reply of q outputs of dim integer-valued floats,
// the shape a sum over the integer-valued store produces.
func lookupReply(q, dim int) *serve.LookupResponse {
	resp := &serve.LookupResponse{
		Outputs: make([]tensor.Vector, q),
		Batch:   serve.BatchInfo{Queries: 128, CoalescedRequests: 16, DRAMReads: 97, NaiveReads: 1024, TotalCycles: 3456},
	}
	for qi := range resp.Outputs {
		resp.Outputs[qi] = make(tensor.Vector, dim)
		for i := range resp.Outputs[qi] {
			resp.Outputs[qi][i] = float32((qi*131+i*37)%129 - 64)
		}
	}
	return resp
}

// BenchmarkLookupReply renders one 8x128 lookup reply, the serve_hot shape,
// as the HTTP handler's 200 body.
func BenchmarkLookupReply(b *testing.B) {
	resp := lookupReply(8, 128)
	enc := serve.NewReplyEncoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(resp); err != nil {
			b.Fatal(err)
		}
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
