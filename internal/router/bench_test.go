package router

import (
	"testing"

	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/rnet"
	"fafnir/internal/tensor"
)

// The router-overhead pair: the same workload through a direct single
// System and through a 1-shard fleet. The fleet adds scatter bookkeeping,
// one (empty) combine pass, and the breaker checks; BENCH_6.json tracks
// that the wall-clock delta stays within noise.

func benchBatchSize() int { return 32 }

func BenchmarkDirectSystem(b *testing.B) {
	f, err := New(Config{Shards: 1, RanksPerShard: 8, Rows: 1 << 17, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Drive the shard's engine directly, bypassing the router: the same
	// store, placement, and memory the 1-shard fleet uses.
	batch, err := f.GenerateBatch(benchBatchSize(), 1)
	if err != nil {
		b.Fatal(err)
	}
	batch.Op = tensor.OpSum
	sh := f.leaves[0].(*shardNode)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.engine.TimedLookup(f.store, sh.primary, sh.mem, batch, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouterOverhead(b *testing.B) {
	f, err := New(Config{Shards: 1, RanksPerShard: 8, Rows: 1 << 17, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	batch, err := f.GenerateBatch(benchBatchSize(), 1)
	if err != nil {
		b.Fatal(err)
	}
	batch.Op = tensor.OpSum
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Lookup(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetLookup4Shards(b *testing.B) {
	f, err := New(Config{Shards: 4, RanksPerShard: 8, Rows: 1 << 17})
	if err != nil {
		b.Fatal(err)
	}
	batch, err := f.GenerateBatch(benchBatchSize(), 1)
	if err != nil {
		b.Fatal(err)
	}
	batch.Op = tensor.OpSum
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Lookup(batch); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink *core.TimedResult

func BenchmarkFleetFailover(b *testing.B) {
	cfg := Config{Shards: 4, RanksPerShard: 8, Rows: 1 << 17, Parallelism: 1}
	cfg.Fleet.ShardFailures = []fault.ShardFailure{{Shard: 1, At: 0}}
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := f.GenerateBatch(benchBatchSize(), 1)
	if err != nil {
		b.Fatal(err)
	}
	batch.Op = tensor.OpSum
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.Lookup(batch)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

// BenchmarkFederationLookup is the serve_federation backend without the
// serving layer: 2 fleets x 4 shards, radix-2 switch trees at both levels,
// cycling through 8-query Zipf batches at the default Parallelism.
func BenchmarkFederationLookup(b *testing.B) {
	fd, err := NewFederation(FederationConfig{Fleets: 2, Fleet: Config{Shards: 4, Rnet: rnet.Config{Radix: 2}}})
	if err != nil {
		b.Fatal(err)
	}
	pool, err := fd.GenerateBatch(8*32, 1)
	if err != nil {
		b.Fatal(err)
	}
	batches := make([]embedding.Batch, 0, 32)
	for q := 0; q < len(pool.Queries); q += 8 {
		batches = append(batches, embedding.Batch{Op: pool.Op, Queries: pool.Queries[q : q+8]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fd.Lookup(batches[i%len(batches)])
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}
