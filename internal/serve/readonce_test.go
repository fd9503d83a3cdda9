package serve_test

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"fafnir"
	"fafnir/internal/cache"
	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/oracle"
	"fafnir/internal/serve"
	"fafnir/internal/tensor"
)

// cachedBackend is one topology the cache fill must read once on. stores
// lists the backend's embedding stores: one per system or fleet, every one
// holding the same rows.
type cachedBackend struct {
	name   string
	build  func(t *testing.T) serve.Backend
	stores func(serve.Backend) []*embedding.Store
}

func cachedBackends() []cachedBackend {
	const rows = 1 << 14
	fleetStores := func(b serve.Backend) []*embedding.Store { return []*embedding.Store{b.(*fafnir.Fleet).Store()} }
	return []cachedBackend{
		{
			name:   "system",
			build:  func(t *testing.T) serve.Backend { return testSystem(t, fafnir.SystemConfig{}) },
			stores: func(b serve.Backend) []*embedding.Store { return []*embedding.Store{b.(*fafnir.System).Store()} },
		},
		{
			name: "fleet",
			build: func(t *testing.T) serve.Backend {
				f, err := fafnir.NewFleet(fafnir.FleetConfig{Shards: 4, Rows: rows})
				if err != nil {
					t.Fatal(err)
				}
				return f
			},
			stores: fleetStores,
		},
		{
			name: "federation",
			build: func(t *testing.T) serve.Backend {
				fd, err := fafnir.NewFederation(fafnir.FederationConfig{Fleets: 2, Fleet: fafnir.FleetConfig{Shards: 4, Rows: rows}})
				if err != nil {
					t.Fatal(err)
				}
				return fd
			},
			stores: func(b serve.Backend) []*embedding.Store {
				fd := b.(*fafnir.Federation)
				var all []*embedding.Store
				for fm := range fd.Fleets() {
					all = append(all, fd.Fleet(fm).Store())
				}
				return all
			},
		},
	}
}

// uniformQueries draws n queries of k distinct-ish indices, uniform over rows.
func uniformQueries(seed int64, rows uint64, n, k int) []embedding.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]embedding.Query, n)
	for i := range qs {
		idx := make([]header.Index, k)
		for j := range idx {
			idx[j] = header.Index(rng.Int63n(int64(rows)))
		}
		qs[i] = embedding.Query{Indices: header.NewIndexSet(idx...)}
	}
	return qs
}

// TestFillReadsEachRowOnce pins the paper's host invariant through the
// serving tier: on a single system, a 4-shard fleet and a 2-fleet
// federation, one cold cached flush synthesizes each row the backend read
// exactly once — the cache fill copies the rows the engine's leaf reads
// staged instead of synthesizing them again — and the bytes the cache
// admitted are one slot per row read.
func TestFillReadsEachRowOnce(t *testing.T) {
	for _, tb := range cachedBackends() {
		t.Run(tb.name, func(t *testing.T) {
			be := tb.build(t)
			var fills atomic.Int64
			for _, st := range tb.stores(be) {
				st.FillHook = func(header.Index) { fills.Add(1) }
			}

			co, err := serve.NewCoalescer(serve.Config{CacheBytes: 8 << 20}, be, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close(context.Background())
			qs := uniformQueries(3, be.(serve.System).TotalRows(), 8, 16)
			res, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			unique := embedding.Batch{Queries: qs}.UniqueIndices()
			if res.Stats.MemoryReads != len(unique) {
				t.Fatalf("backend read %d rows, want the %d unique ones", res.Stats.MemoryReads, len(unique))
			}
			if got := fills.Load(); got != int64(len(unique)) {
				t.Errorf("%d store syntheses for %d unique rows read: want exactly one each", got, len(unique))
			}
			slot := cache.Config{Dim: 128}.SlotBytes()
			if got := co.Metrics().CacheBytes.Value(); got != uint64(len(unique))*uint64(slot) {
				t.Errorf("fafnir_cache_bytes_total = %d = %d slots, want one slot per row read (%d)", got, got/uint64(slot), len(unique))
			}
			for _, idx := range unique {
				if !co.CacheResident(idx) {
					t.Fatalf("row %d was read but not admitted", idx)
				}
			}
		})
	}
}

// TestCacheKeyedByIndex: a cached row is the raw row, whatever op later
// pools it. On a system and on a 4-shard fleet, rows warmed by a sum flight
// serve a later max request entirely from cache, with outputs bit-identical
// to a cache-off run and to the oracle.
func TestCacheKeyedByIndex(t *testing.T) {
	for _, tb := range cachedBackends()[:2] {
		t.Run(tb.name, func(t *testing.T) {
			be := tb.build(t)
			qs := uniformQueries(5, be.(serve.System).TotalRows(), 6, 12)
			co, err := serve.NewCoalescer(serve.Config{CacheBytes: 8 << 20}, be, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close(context.Background())
			if _, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: qs}); err != nil {
				t.Fatal(err)
			}
			res, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpMax, Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			total := embedding.Batch{Queries: qs}.TotalAccesses()
			if res.Stats.CacheHits != total || res.Stats.CacheMisses != 0 || res.Stats.MemoryReads != 0 {
				t.Fatalf("max after sum: %d hits / %d misses / %d reads, want %d / 0 / 0",
					res.Stats.CacheHits, res.Stats.CacheMisses, res.Stats.MemoryReads, total)
			}

			plain, err := serve.NewCoalescer(serve.Config{}, tb.build(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close(context.Background())
			off, err := plain.Submit(context.Background(), serve.Request{Op: tensor.OpMax, Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Lookup(tb.stores(be)[0], embedding.Batch{Queries: qs, Op: tensor.OpMax})
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				if !res.Outputs[i].Equal(off.Outputs[i]) || !res.Outputs[i].Equal(want[i]) {
					t.Fatalf("query %d: cached max diverges from cache-off or the oracle", i)
				}
			}
		})
	}
}

// TestCacheAdmitsOnlyRowsTheBackendRead: with shard 1 and its replica
// holder (shard 3) both dark, a query of eight shard-1 rows comes back
// degraded with nothing read. None of its rows may enter the cache — they
// never left DRAM — so the same request sent again reaches the backend and
// is reported degraded again, instead of being answered in full from cache
// while both copies are still down.
func TestCacheAdmitsOnlyRowsTheBackendRead(t *testing.T) {
	plan, err := fafnir.ParseFleetFaultPlan("shard=1@0;shard=3@0")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := fafnir.NewFleet(fafnir.FleetConfig{Shards: 4, Rows: 1 << 14, Fleet: plan})
	if err != nil {
		t.Fatal(err)
	}
	co, err := serve.NewCoalescer(serve.Config{CacheBytes: 1 << 20}, fleet, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())

	var rows []header.Index
	for i := 0; i < 8; i++ {
		rows = append(rows, header.Index(4*(37*i+3)+1)) // owned by shard 1
	}
	req := serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{{Indices: header.NewIndexSet(rows...)}}}
	for pass := 1; pass <= 2; pass++ {
		res, err := co.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.Degraded == nil || !slices.Equal(st.Degraded.LostIndexCounts, []int{8}) {
			t.Fatalf("pass %d: degraded report %+v, want one query with 8 lost indices", pass, st.Degraded)
		}
		if st.MemoryReads != 0 || st.CacheHits != 0 {
			t.Fatalf("pass %d: %d reads / %d cache hits, want 0 / 0", pass, st.MemoryReads, st.CacheHits)
		}
	}
	for _, idx := range rows {
		if co.CacheResident(idx) {
			t.Errorf("row %d is resident though no read of it succeeded", idx)
		}
	}
	if got := co.Metrics().CacheBytes.Value(); got != 0 {
		t.Errorf("fafnir_cache_bytes_total = %d, want 0", got)
	}
}
