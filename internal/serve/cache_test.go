package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fafnir"
	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/oracle"
	"fafnir/internal/serve"
	"fafnir/internal/tensor"
)

// AttachRowSink and Dim make fakeBackend a serve.RowSource, so cache tests
// can run over the oracle-computing fake; its Lookup hands the sink every
// unique row of the batch, as one hardware batch would.
func (f *fakeBackend) AttachRowSink(sink fafnir.RowSink) { f.sink = sink }
func (f *fakeBackend) Dim() int                          { return f.store.Dim() }

// cacheOps are the pooling operations the conformance suite sweeps.
var cacheOps = []tensor.ReduceOp{tensor.OpSum, tensor.OpMin, tensor.OpMax, tensor.OpMean}

// conformanceQueries builds a deterministic request stream with heavy
// cross-request index reuse (the hot set), so a second pass hits the cache.
func conformanceQueries(seed int64, rows uint64, requests, queriesPer, indicesPer int) [][]embedding.Query {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]header.Index, 64)
	for i := range hot {
		hot[i] = header.Index(rng.Int63n(int64(rows)))
	}
	out := make([][]embedding.Query, requests)
	for r := range out {
		qs := make([]embedding.Query, queriesPer)
		for qi := range qs {
			idxs := make([]header.Index, 0, indicesPer)
			for len(idxs) < indicesPer {
				var v header.Index
				if rng.Intn(4) != 0 { // 75% of draws come from the hot set
					v = hot[rng.Intn(len(hot))]
				} else {
					v = header.Index(rng.Int63n(int64(rows)))
				}
				idxs = append(idxs, v)
			}
			qs[qi] = embedding.Query{Indices: header.NewIndexSet(idxs...)}
		}
		out[r] = qs
	}
	return out
}

// submitAll runs the request stream through a coalescer twice (the second
// pass re-reads the first pass's working set, exercising strip-and-merge)
// and returns every output in submission order.
func submitAll(t *testing.T, co *serve.Coalescer, op tensor.ReduceOp, reqs [][]embedding.Query) []tensor.Vector {
	t.Helper()
	var outs []tensor.Vector
	for pass := 0; pass < 2; pass++ {
		for i, qs := range reqs {
			res, err := co.Submit(context.Background(), serve.Request{Op: op, Queries: qs})
			if err != nil {
				t.Fatalf("pass %d request %d: %v", pass, i, err)
			}
			outs = append(outs, res.Outputs...)
		}
	}
	return outs
}

// TestCacheConformance is the metamorphic suite: for every pooling op and
// Parallelism in {1, 2, NumCPU}, outputs with the cache on are bit-identical
// to the cache-off run and to the independent oracle over a separately built
// store.
func TestCacheConformance(t *testing.T) {
	reqs := conformanceQueries(17, 32*testRowsPerTable, 12, 3, 16)
	for _, par := range []int{1, 2, runtime.NumCPU()} {
		for _, op := range cacheOps {
			t.Run(fmt.Sprintf("p%d/%s", par, op), func(t *testing.T) {
				run := func(cacheBytes int64) []tensor.Vector {
					sys := testSystem(t, fafnir.SystemConfig{Parallelism: par})
					co, err := serve.NewCoalescer(serve.Config{CacheBytes: cacheBytes}, sys, nil)
					if err != nil {
						t.Fatal(err)
					}
					defer co.Close(context.Background())
					return submitAll(t, co, op, reqs)
				}
				cached := run(1 << 20)
				plain := run(0)
				if len(cached) != len(plain) {
					t.Fatalf("output counts differ: %d vs %d", len(cached), len(plain))
				}
				for i := range cached {
					if !cached[i].Equal(plain[i]) {
						t.Fatalf("output %d: cache-on diverges from cache-off\n  on:  %v\n  off: %v",
							i, cached[i][:4], plain[i][:4])
					}
				}
				// Independent referee: the oracle over a separately built
				// store (same layout parameters as the System facade).
				store := embedding.MustStore(32*testRowsPerTable, 128, 1)
				var flat []embedding.Query
				for pass := 0; pass < 2; pass++ {
					for _, qs := range reqs {
						flat = append(flat, qs...)
					}
				}
				want, err := oracle.Lookup(store, embedding.Batch{Queries: flat, Op: op})
				if err != nil {
					t.Fatal(err)
				}
				for i := range cached {
					if !cached[i].Equal(want[i]) {
						t.Fatalf("output %d: cache-on diverges from oracle", i)
					}
				}
			})
		}
	}
}

// TestCacheConformanceFaulted reruns the conformance comparison under a
// recoverable seeded fault plan (dark rank remapped to its replica, ECC
// retries): the degraded machinery changes timing and reports, never
// outputs, so cache-on must still match cache-off and the oracle.
func TestCacheConformanceFaulted(t *testing.T) {
	reqs := conformanceQueries(23, 32*testRowsPerTable, 8, 2, 16)
	for _, par := range []int{1, runtime.NumCPU()} {
		for _, op := range []tensor.ReduceOp{tensor.OpSum, tensor.OpMean} {
			t.Run(fmt.Sprintf("p%d/%s", par, op), func(t *testing.T) {
				run := func(cacheBytes int64) []tensor.Vector {
					// Each run parses its own plan: the injector carries
					// per-run state, so sharing one would entangle them.
					plan, err := fafnir.ParseFaultPlan("rank=3@0;ecc=0.001;seed=9")
					if err != nil {
						t.Fatal(err)
					}
					sys := testSystem(t, fafnir.SystemConfig{Parallelism: par, Faults: plan})
					co, err := serve.NewCoalescer(serve.Config{CacheBytes: cacheBytes}, sys, nil)
					if err != nil {
						t.Fatal(err)
					}
					defer co.Close(context.Background())
					return submitAll(t, co, op, reqs)
				}
				cached := run(1 << 19)
				plain := run(0)
				for i := range cached {
					if !cached[i].Equal(plain[i]) {
						t.Fatalf("output %d diverges under faults", i)
					}
				}
				store := embedding.MustStore(32*testRowsPerTable, 128, 1)
				var flat []embedding.Query
				for pass := 0; pass < 2; pass++ {
					for _, qs := range reqs {
						flat = append(flat, qs...)
					}
				}
				want, err := oracle.Lookup(store, embedding.Batch{Queries: flat, Op: op})
				if err != nil {
					t.Fatal(err)
				}
				for i := range cached {
					if !cached[i].Equal(want[i]) {
						t.Fatalf("output %d diverges from oracle under faults", i)
					}
				}
			})
		}
	}
}

// TestCacheConformanceFleet runs the two-pass comparison through the fleet
// router: per-shard cache partitions, outputs bit-identical to cache-off and
// to the batch golden over the fleet's own store.
func TestCacheConformanceFleet(t *testing.T) {
	const rows = 1 << 14
	reqs := conformanceQueries(31, rows, 10, 2, 12)
	for _, op := range cacheOps {
		t.Run(op.String(), func(t *testing.T) {
			var goldenStore *embedding.Store
			run := func(cacheBytes int64) []tensor.Vector {
				fleet, err := fafnir.NewFleet(fafnir.FleetConfig{
					Shards: 4, RanksPerShard: 8, Rows: rows, Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				goldenStore = fleet.Store()
				co, err := serve.NewCoalescer(serve.Config{CacheBytes: cacheBytes}, fleet, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer co.Close(context.Background())
				return submitAll(t, co, op, reqs)
			}
			cached := run(1 << 20)
			plain := run(0)
			for i := range cached {
				if !cached[i].Equal(plain[i]) {
					t.Fatalf("output %d: fleet cache-on diverges from cache-off", i)
				}
			}
			var flat []embedding.Query
			for pass := 0; pass < 2; pass++ {
				for _, qs := range reqs {
					flat = append(flat, qs...)
				}
			}
			want, err := embedding.Batch{Queries: flat, Op: op}.Golden(goldenStore)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cached {
				if !cached[i].Equal(want[i]) {
					t.Fatalf("output %d: fleet cache-on diverges from golden", i)
				}
			}
		})
	}
}

// TestCacheWholeBatchFromCache pins the all-hits path: a batch whose every
// index is cached never touches the backend and still returns bit-identical
// outputs.
func TestCacheWholeBatchFromCache(t *testing.T) {
	for _, op := range cacheOps {
		t.Run(op.String(), func(t *testing.T) {
			f := newFake()
			co, err := serve.NewCoalescer(serve.Config{CacheBytes: 1 << 16}, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close(context.Background())

			qs := []embedding.Query{query(3, 9, 27), query(9, 81)}
			first, err := co.Submit(context.Background(), serve.Request{Op: op, Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			if first.Stats.CacheMisses != 5 { // 3+2 index reads; 9 misses in both queries
				t.Fatalf("first pass CacheMisses = %d, want 5", first.Stats.CacheMisses)
			}

			// Any backend call now is a bug: the whole batch must come from
			// the cache.
			f.fail = func(embedding.Batch) error { return errors.New("backend touched on a fully cached batch") }
			second, err := co.Submit(context.Background(), serve.Request{Op: op, Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			if second.Stats.MemoryReads != 0 {
				t.Fatalf("fully cached batch reported %d memory reads", second.Stats.MemoryReads)
			}
			if second.Stats.CacheHits != 5 || second.Stats.CacheMisses != 0 { // 3+2 index reads
				t.Fatalf("second pass hits/misses = %d/%d, want 5/0", second.Stats.CacheHits, second.Stats.CacheMisses)
			}
			for i := range first.Outputs {
				if !second.Outputs[i].Equal(first.Outputs[i]) {
					t.Fatalf("query %d: cached output diverges from computed one\n  got  %v\n  want %v",
						i, second.Outputs[i], first.Outputs[i])
				}
			}
		})
	}
}

// TestCacheReducesReads pins the headline effect: a second pass over the
// same working set is served mostly from cache, cutting backend reads.
func TestCacheReducesReads(t *testing.T) {
	f := newFake()
	co, err := serve.NewCoalescer(serve.Config{CacheBytes: 1 << 20}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())
	reqs := conformanceQueries(43, 1<<16, 16, 2, 16)
	pass := func() (reads int) {
		for _, qs := range reqs {
			res, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			reads += res.Stats.MemoryReads
		}
		return reads
	}
	warm := pass()
	hot := pass()
	if hot != 0 {
		t.Fatalf("second pass issued %d backend reads, want 0 (cache holds the whole working set)", hot)
	}
	if warm == 0 {
		t.Fatal("first pass issued no backend reads")
	}
	m := co.Metrics()
	if m.CacheHits.Value() == 0 {
		t.Fatal("no cache hits recorded")
	}
}

// TestCacheCountersSurviveFailedSharedBatch fails a shared batch after its
// cache consult: the consult's hits and misses must still reach
// fafnir_cache_{hits,misses}_total, so the counters always equal what the
// CLOCK rings themselves counted. One rider also gives up while the shared
// batch is in the backend; it flew, so it is not an in-queue expiry.
func TestCacheCountersSurviveFailedSharedBatch(t *testing.T) {
	f := newFake()
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 2, Linger: time.Minute, CacheBytes: 1 << 16}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())

	// Warm rows 1-4 with one full, healthy batch.
	if _, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(1, 2), query(3, 4)}}); err != nil {
		t.Fatal(err)
	}

	// From here on, any batch carrying two queries fails — after the second
	// rider has walked away.
	quitter, quit := context.WithCancel(context.Background())
	f.fail = func(b embedding.Batch) error {
		if len(b.Queries) > 1 {
			quit()
			return errors.New("shared batch poisoned")
		}
		return nil
	}
	stays, err := co.Admit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(1, 2, 50)}})
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := co.Admit(quitter, serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(3, 60)}})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := stays.Wait(); err != nil || !res.Stats.Isolated {
		t.Fatalf("surviving rider: err %v, stats %+v; want an isolated success", err, res.Stats)
	}
	if _, err := leaves.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("departed rider returned %v, want Canceled", err)
	}
	// The flusher is serial: once this (full, fully cached) batch is back,
	// both retries are over.
	if _, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(1), query(2)}}); err != nil {
		t.Fatal(err)
	}

	m := co.Metrics()
	hits, misses := co.CacheRingStats()
	if hits != 5 || misses != 6 {
		t.Fatalf("rings counted %d hits / %d misses, want 5 / 6", hits, misses)
	}
	if m.CacheHits.Value() != hits || m.CacheMisses.Value() != misses {
		t.Fatalf("metrics report %d hits / %d misses, rings counted %d / %d",
			m.CacheHits.Value(), m.CacheMisses.Value(), hits, misses)
	}
	if got := m.ExpiredInQueue.Value(); got != 0 {
		t.Fatalf("ExpiredInQueue = %d, want 0: the departed rider reached the backend before it left", got)
	}
	if got := m.IsolationRetries.Value(); got != 1 {
		t.Fatalf("IsolationRetries = %d, want 1", got)
	}
}

// TestCacheRequiresRowSource pins the capability contract: a byte budget
// over a backend that cannot hand out raw rows is a construction error, not
// a silent no-op.
func TestCacheRequiresRowSource(t *testing.T) {
	_, err := serve.NewCoalescer(serve.Config{CacheBytes: 1 << 20}, noRowsBackend{newFake()}, nil)
	if err == nil {
		t.Fatal("NewCoalescer accepted CacheBytes over a backend without RowSource")
	}
}

// noRowsBackend forwards lookups but hides the fake's RowSource capability.
type noRowsBackend struct{ f *fakeBackend }

func (n noRowsBackend) Lookup(b embedding.Batch) (*fafnir.LookupResult, error) { return n.f.Lookup(b) }
