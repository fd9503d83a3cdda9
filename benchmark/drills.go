package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"fafnir"
	"fafnir/internal/batch"
	"fafnir/internal/cache"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/header"
	"fafnir/internal/memmap"
	"fafnir/internal/recnmp"
	"fafnir/internal/rnet"
	"fafnir/internal/router"
	"fafnir/internal/serve"
	"fafnir/internal/sparse"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
	"fafnir/internal/twostep"
)

// Layer drills: the workload's generated inputs replayed straight into each
// layer's public functions and timed from outside. A drill measures a layer
// alone; a layer's self time is its own drill or span minus the drills of
// the layers it calls.

// drillBatch is one engine batch of a workload with the draw it came from.
type drillBatch struct {
	batch  fafnir.Batch
	shared bool // Zipf draw: queries share indices
}

const (
	maxDrillBatches = 256
	vectorBytes     = 512
	vectorDim       = 128
)

// stopwatch returns the wall time of f, the fastest of three runs: a drill
// asks what the code costs, not what the machine was doing meanwhile.
func stopwatch(f func()) time.Duration {
	best := time.Duration(0)
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); k == 0 || d < best {
			best = d
		}
	}
	return best
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// rig is the paper's default memory system taken apart, so each piece can
// be driven alone: what fafnir.NewSystem assembles, with the same defaults.
type rig struct {
	mcfg   dram.Config
	layout *memmap.Layout
	store  *embedding.Store
	mem    *dram.System
}

func newRig() (*rig, error) {
	mcfg := dram.DDR4()
	layout := memmap.Uniform(mcfg, vectorBytes, 32, 1<<17)
	store, err := embedding.NewStore(layout.TotalRows(), vectorDim, 1)
	if err != nil {
		return nil, err
	}
	mem, err := dram.NewSystem(mcfg)
	if err != nil {
		return nil, err
	}
	return &rig{mcfg, layout, store, mem}, nil
}

func (r *rig) engine(parallelism int) (*core.Engine, error) {
	cfg := core.Default()
	cfg.NumRanks = r.mcfg.TotalRanks()
	cfg.Parallelism = parallelism
	return core.NewEngine(cfg)
}

// lookupAll runs every batch through TimedLookup on freshly reset memory,
// three times over, and returns the fastest pass's host time per kind of
// batch (as stopwatch does) and the last pass's results.
func (r *rig) lookupAll(eng *core.Engine, bs []drillBatch) (shared, unique time.Duration, res []*core.TimedResult, err error) {
	res = make([]*core.TimedResult, len(bs))
	for k := 0; k < 3; k++ {
		var s, u time.Duration
		for i, b := range bs {
			r.mem.Reset()
			t0 := time.Now()
			res[i], err = eng.TimedLookup(r.store, r.layout, r.mem, b.batch, true)
			d := time.Since(t0)
			if err != nil {
				return 0, 0, nil, err
			}
			if b.shared {
				s += d
			} else {
				u += d
			}
		}
		if k == 0 || s+u < shared+unique {
			shared, unique = s, u
		}
	}
	return shared, unique, res, nil
}

// embeddingDrills covers batch, fafnir, header, tensor, dram, embedding,
// memmap, recnmp and telemetry for a workload whose inputs are lookups.
func embeddingDrills(bs []drillBatch, out metrics) error {
	if len(bs) > maxDrillBatches {
		bs = bs[:maxDrillBatches]
	}
	r, err := newRig()
	if err != nil {
		return err
	}
	n := float64(len(bs))
	queries, nShared := 0.0, 0.0
	for _, b := range bs {
		queries += float64(len(b.batch.Queries))
		if b.shared {
			nShared++
		}
	}

	// batch: the host-side rearrangement, once per engine batch.
	plans := make([]*batch.Plan, len(bs))
	build := stopwatch(func() {
		for i, b := range bs {
			plans[i] = batch.Build(b.batch, true)
		}
	})
	reads, naive := 0.0, 0.0
	for _, p := range plans {
		reads += float64(p.NumAccesses())
		naive += float64(p.TotalAccesses())
	}
	out["batch.build_us_per_hwbatch"] = us(build) / n
	out["batch.unique_fraction"] = ratio(reads, naive)

	// fafnir: the tree engine, serial and at default parallelism. Every
	// simulated statistic must agree between the two.
	eng1, err := r.engine(1)
	if err != nil {
		return err
	}
	engN, err := r.engine(0)
	if err != nil {
		return err
	}
	s1, u1, res1, err := r.lookupAll(eng1, bs)
	if err != nil {
		return err
	}
	t1 := s1 + u1
	tShared, tUnique, resN, err := r.lookupAll(engN, bs)
	if err != nil {
		return err
	}
	var cycles, bound, reduces, compares, violations float64
	for i := range bs {
		a, b := res1[i], resN[i]
		if a.TotalCycles != b.TotalCycles || a.MemoryReads != b.MemoryReads || a.PETotals != b.PETotals {
			return fmt.Errorf("fafnir drill: batch %d simulates differently at Parallelism 1 and default (%d vs %d cycles)", i, a.TotalCycles, b.TotalCycles)
		}
		if a.Stages.Sum() != a.TotalCycles {
			violations++
		}
		cycles += float64(a.TotalCycles)
		bound += float64(eng1.LowerBoundCycles(r.mcfg, bs[i].batch))
		reduces += float64(a.PETotals.Reduces)
		compares += float64(a.PETotals.Compares)
	}
	out["fafnir.timed_lookup_us.shared"] = ratio(us(tShared), nShared)
	out["fafnir.timed_lookup_us.unique"] = ratio(us(tUnique), n-nShared)
	out["fafnir.pe_reduces_per_query"] = reduces / queries
	out["fafnir.pe_compares_per_query"] = compares / queries
	out["fafnir.parallel_speedup"] = ratio(ns(t1), ns(tShared+tUnique))
	out["fafnir.lower_bound_ratio"] = ratio(cycles, bound)
	out["fafnir.stage_sum_violations"] = violations

	// memmap, dram, embedding: one leaf read is an address, a DRAM access
	// and a materialised vector. All reads of a batch issue at cycle 0.
	var addrs []dram.Addr
	var indices []header.Index
	for _, p := range plans {
		for _, a := range p.Accesses {
			indices = append(indices, a.Index)
		}
	}
	addrs = make([]dram.Addr, len(indices))
	addr := stopwatch(func() {
		for i, idx := range indices {
			addrs[i] = r.layout.Addr(idx)
		}
	})
	var latency float64
	var hits, misses, conflicts, moved float64
	read := stopwatch(func() {
		latency, hits, misses, conflicts, moved = 0, 0, 0, 0, 0
		k := 0
		for _, p := range plans {
			r.mem.Reset()
			for range p.Accesses {
				latency += float64(r.mem.Read(0, addrs[k], vectorBytes, dram.DestLocal))
				k++
			}
			st := r.mem.Stats()
			hits += float64(st.Counter("dram.row_hits"))
			misses += float64(st.Counter("dram.row_misses"))
			conflicts += float64(st.Counter("dram.row_conflicts"))
			moved += float64(st.Counter("dram.bytes"))
		}
	})
	vec := stopwatch(func() {
		for _, idx := range indices {
			if _, err = r.store.Vector(idx); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	golden := stopwatch(func() {
		for _, b := range bs {
			if _, err = b.batch.Golden(r.store); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	out["memmap.addr_ns"] = ns(addr) / reads
	out["dram.read_ns"] = ns(read) / reads
	out["dram.sim_cycles_per_read"] = latency / reads
	out["dram.row_hit_ratio"] = ratio(hits, hits+misses+conflicts)
	out["dram.row_conflict_ratio"] = ratio(conflicts, hits+misses+conflicts)
	out["dram.bytes_per_query"] = moved / queries
	out["embedding.vector_ns"] = ns(vec) / reads
	out["embedding.golden_us_per_query"] = us(golden) / queries

	// tensor: one element-wise reduce of two vectors.
	acc, v := tensor.New(vectorDim), r.store.MustVector(indices[0])
	apply := stopwatch(func() {
		for range indices {
			_ = tensor.OpSum.Apply(acc, v)
		}
	})
	out["tensor.apply_ns_per_vec"] = ns(apply) / reads

	// header: the PE's set algebra on neighbouring leaf headers, and the
	// bit-level codec on the headers one query owns alone (a shared value's
	// header exceeds the payload budget by design).
	var leaves, solo []header.Header
	for _, p := range plans {
		for _, a := range p.Accesses {
			h := a.LeafHeader()
			leaves = append(leaves, h)
			if len(a.Remaining) == 1 {
				solo = append(solo, h)
			}
		}
	}
	setops := stopwatch(func() {
		for i := 1; i < len(leaves); i++ {
			header.Reduce(leaves[i-1], leaves[i])
		}
	})
	out["header.setops_ns"] = ratio(ns(setops), float64(len(leaves)-1))
	codec := header.Codec{IndexBits: 22, QuerySize: querySize, CountBits: 5}
	pack := stopwatch(func() {
		for _, h := range solo {
			var data []byte
			if data, err = codec.Pack(h); err != nil {
				return
			}
			if _, err = codec.Unpack(data); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("header codec drill: %w", err)
	}
	out["header.codec_ns"] = ratio(ns(pack), float64(len(solo)))

	// fafnir's self time: the serial lookup minus the layers it calls.
	called := build + time.Duration(reads*(out["memmap.addr_ns"]+out["dram.read_ns"]+out["embedding.vector_ns"])+
		reduces*out["tensor.apply_ns_per_vec"])
	out["fafnir.self_us_per_hwbatch"] = max(0, us(t1-called)/n)

	// recnmp: the baseline on the same batches and the same memory.
	rec, err := recnmp.NewEngine(recnmp.Default())
	if err != nil {
		return err
	}
	var recCycles float64
	recTime := stopwatch(func() {
		rec.ResetCaches()
		recCycles = 0
		for _, b := range bs {
			r.mem.Reset()
			var rr *recnmp.Result
			if rr, err = rec.TimedLookup(r.store, r.layout, r.mem, b.batch); err != nil {
				return
			}
			recCycles += float64(rr.TotalCycles)
		}
	})
	if err != nil {
		return err
	}
	out["recnmp.lookup_us_per_batch"] = us(recTime) / n
	out["recnmp.sim_cycles_per_query"] = recCycles / queries
	out["recnmp.sim_speedup"] = ratio(recCycles, cycles)

	// telemetry: a few of the same lookups with and without a trace attached
	// to engine and DRAM (a trace holds hundreds of events per batch).
	sub := bs[:min(len(bs), 32)]
	trace := telemetry.NewTrace()
	sPlain, uPlain, _, err := r.lookupAll(engN, sub)
	if err != nil {
		return err
	}
	engN.AttachTracer(trace)
	r.mem.AttachTracer(trace)
	sTraced, uTraced, _, err := r.lookupAll(engN, sub)
	engN.AttachTracer(nil)
	r.mem.AttachTracer(nil)
	if err != nil {
		return err
	}
	tPlain, tTraced := sPlain+uPlain, sTraced+uTraced
	out["telemetry.trace_tax_ratio"] = ratio(ns(tTraced), ns(tPlain))
	out["telemetry.events_per_hwbatch"] = float64(trace.Len()) / float64(3*len(sub)) // three traced passes
	out["telemetry.chrome_export_ms"] = us(stopwatch(func() { trace.ChromeJSON() })) / 1000
	page := serve.NewMetrics()
	out["telemetry.metrics_render_us"] = us(stopwatch(func() { page.Render(io.Discard) }))
	return nil
}

// sparseDrills covers sparse, spmv and twostep for a workload whose inputs
// are matrices.
func sparseDrills(specs []matrixSpec, seed int64, x []fafnir.Vector, eng spmvEngines, out metrics) error {
	rng := rand.New(rand.NewSource(seed))
	width := eng.faf.Config().VectorSize
	var nnz, nnzSmall float64
	var fromCOO, chunking, mulvec, multiply, twoMul time.Duration
	var mallocs uint64
	var fafCycles, twoCycles, smallCycles float64
	mergeMax := 0
	for k, sp := range specs {
		var m *sparse.LIL
		gen := stopwatch(func() { m = sp.build(specSeed(seed, k)) })
		out["sparse.generate_s."+sp.class] += gen.Seconds()
		nnz += float64(m.NNZ())

		// The benchmark's own triplets, in an order no generator produced.
		coo := shuffledCOO(m, rng)
		var err error
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		fromCOO += stopwatch(func() { _, err = sparse.FromCOO(coo) })
		if err != nil {
			return err
		}
		chunking += stopwatch(func() {
			for lo := 0; lo < m.Cols; lo += width {
				m.ColumnChunk(lo, min(lo+width, m.Cols))
			}
		})
		runtime.ReadMemStats(&ms1)
		mallocs += (ms1.Mallocs - ms0.Mallocs) / 3 // stopwatch ran each three times
		mulvec += stopwatch(func() { _, err = m.MulVec(x[k]) })
		if err != nil {
			return err
		}

		var faf *fafnir.SpMVResult
		multiply += stopwatch(func() { faf, err = eng.faf.Multiply(m, x[k], dram.MustSystem(dram.DDR4())) })
		if err != nil {
			return err
		}
		fafCycles += float64(faf.TotalCycles)
		mergeMax = max(mergeMax, faf.Plan.MergeIterations())
		var two *twostep.Result
		twoMul += stopwatch(func() { two, err = eng.two.Multiply(m, x[k], dram.MustSystem(dram.DDR4())) })
		if err != nil {
			return err
		}
		twoCycles += float64(two.TotalCycles)

		// One vector's width of the same matrix needs no merge iteration.
		small := m.ColumnChunk(0, min(width, m.Cols))
		res, err := eng.faf.Multiply(small, x[k][:small.Cols], dram.MustSystem(dram.DDR4()))
		if err != nil {
			return err
		}
		if res.Plan.MergeIterations() != 0 {
			return fmt.Errorf("spmv drill: a %d-column matrix planned %d merge iterations", small.Cols, res.Plan.MergeIterations())
		}
		smallCycles += float64(res.TotalCycles)
		nnzSmall += float64(small.NNZ())
	}
	out["sparse.from_coo_ns_per_nnz"] = ns(fromCOO) / nnz
	out["sparse.column_chunk_ns_per_nnz"] = ns(chunking) / nnz
	out["sparse.mulvec_ns_per_nnz"] = ns(mulvec) / nnz
	out["sparse.allocs_per_nnz"] = float64(mallocs) / nnz
	out["spmv.multiply_ns_per_nnz"] = ns(multiply) / nnz
	out["spmv.self_ns_per_nnz"] = max(0, ns(multiply-chunking)/nnz)
	out["spmv.merge_iterations_max"] = float64(mergeMax)
	out["spmv.sim_cycles_per_nnz.merge"] = fafCycles / nnz
	out["spmv.sim_cycles_per_nnz.nomerge"] = ratio(smallCycles, nnzSmall)
	out["twostep.multiply_ns_per_nnz"] = ns(twoMul) / nnz
	out["twostep.sim_cycles_per_nnz"] = twoCycles / nnz
	out["twostep.sim_speedup"] = ratio(twoCycles, fafCycles)
	return nil
}

// serialLayerMetrics folds the traced serial pass into the serve, cache,
// federation and rnet rows: spans for the boundaries the benchmark wraps,
// /metrics differences (delta) for what the server counts itself, and the
// page's final values (after) for totals and gauges.
func serialLayerMetrics(tr *tracer, n float64, delta, after metrics) metrics {
	out := metrics{}
	stage := func(name string) float64 {
		return delta[`fafnir_serve_stage_seconds_sum{stage="`+name+`"}`] * 1e6 / n
	}
	handler := mean(tr.take("http.handler"))
	out["serve.handler_us_per_req"] = handler
	out["serve.queue_us_per_req"] = stage("queue")
	out["serve.coalesce_us_per_req"] = stage("coalesce")
	out["serve.cache_us_per_req"] = stage("cache")
	out["serve.backend_us_per_req"] = stage("backend")
	// serve's own time: the handler minus the layers it calls.
	out["serve.self_us_per_req"] = max(0, handler-stage("cache")-stage("backend"))
	queries, batches := delta["fafnir_serve_queries_total"], delta["fafnir_serve_batches_total"]
	out["serve.reads_per_query"] = ratio(delta["fafnir_serve_dram_reads_total"], queries)
	out["serve.naive_reads_per_query"] = ratio(delta["fafnir_serve_naive_reads_total"], queries)
	out["serve.shed_total"] = after.sumPrefix("fafnir_serve_shed_total")
	out["serve.expired_in_queue_total"] = after["fafnir_serve_expired_in_queue_total"]
	out["serve.isolation_retries_total"] = after["fafnir_serve_isolation_retries_total"]
	out["serve.degraded_total"] = after["fafnir_serve_degraded_total"]

	hits, misses := delta["fafnir_cache_hits_total"], delta["fafnir_cache_misses_total"]
	out["cache.hit_ratio"] = ratio(hits, hits+misses)
	out["cache.evictions_per_kreq"] = delta["fafnir_cache_evictions_total"] * 1000 / n
	out["cache.resident_mb"] = after["fafnir_cache_resident_bytes"] / (1 << 20)

	out["federation.fleet_lookups_per_batch"] = ratio(delta.sumPrefix("fafnir_federation_fleet_lookups_total"), batches)
	return out
}

// drills of a serving workload: the embedding drills on its requests, plus
// the client, cache, router and rnet drills.
func (s *serveInst) drills(latMS []float64, out metrics) error {
	cl := s.callers[0]
	n := min(len(cl.raw), maxDrillBatches)
	bs := make([]drillBatch, n)
	for i := range bs {
		bs[i] = drillBatch{batch: sumBatch(cl.raw[i]), shared: s.kind != serveCold}
	}
	if err := embeddingDrills(bs, out); err != nil {
		return err
	}

	// The rounds on the long-lived server are where requests coalesce.
	page, err := s.st.scrape(cl.hc)
	if err != nil {
		return err
	}
	perBatch := ratio(page["fafnir_serve_queries_total"], page["fafnir_serve_batches_total"])
	out["serve.batch_queries_mean"] = perBatch
	out["serve.coalesce_factor"] = perBatch / requestQueries
	out["serve.shed_total"] += page.sumPrefix("fafnir_serve_shed_total")
	out["serve.expired_in_queue_total"] += page["fafnir_serve_expired_in_queue_total"]
	out["serve.isolation_retries_total"] += page["fafnir_serve_isolation_retries_total"]
	out["serve.degraded_total"] += page["fafnir_serve_degraded_total"]

	// client: what the generator itself spends per request.
	enc := stopwatch(func() {
		for _, qs := range cl.raw[:n] {
			if _, err = encodeRequest(qs); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	out["client.encode_us_per_req"] = us(enc) / float64(n)
	dec := stopwatch(func() {
		for _, body := range s.replies {
			var reply lookupReply
			if err = json.Unmarshal(body, &reply); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	out["client.decode_us_per_req"] = ratio(us(dec), float64(len(s.replies)))
	out["client.lat_p99_ms"] = percentile(latMS, 99)

	if s.kind == serveFederation {
		return federationDrills(bs, out)
	}
	return cacheDrill(cl.raw, out)
}

// cacheDrill replays a client's whole index stream (more distinct rows than
// the cache holds) into a cache configured as the server's: a warming pass, then every Get timed, then a Put timed for
// every index that missed (each one evicts once the ring is full).
func cacheDrill(requests [][][]uint32, out metrics) error {
	r, err := newRig()
	if err != nil {
		return err
	}
	c, err := cache.New(cache.Config{Bytes: cacheBytes, Dim: vectorDim, Seed: 1})
	if err != nil {
		return err
	}
	var keys []cache.Key
	for _, qs := range requests {
		for _, q := range qs {
			for _, idx := range q {
				keys = append(keys, cache.Key{Op: uint8(tensor.OpSum), Index: idx})
			}
		}
	}
	row := r.store.MustVector(0)
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			if err := c.Put(k, row); err != nil {
				return err
			}
		}
	}
	var missed []cache.Key
	t0 := time.Now()
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			missed = append(missed, k)
		}
	}
	out["cache.get_ns"] = ns(time.Since(t0)) / float64(len(keys))
	t0 = time.Now()
	for _, k := range missed {
		if err := c.Put(k, row); err != nil {
			return err
		}
	}
	out["cache.put_ns"] = ratio(ns(time.Since(t0)), float64(len(missed)))
	return nil
}

// federationDrills covers router and rnet on the federation's requests.
func federationDrills(bs []drillBatch, out metrics) error {
	n := float64(len(bs))
	fcfg := federationConfig()

	// router: one member-shaped fleet against a plain system of the same
	// total width, on the same batches.
	fleet, err := router.New(fcfg.Fleet)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	fleet.RegisterMetrics(reg)
	lookups := 0
	fleetTime := stopwatch(func() {
		for _, b := range bs {
			if _, err = fleet.Lookup(b.batch); err != nil {
				return
			}
			lookups++
		}
	})
	if err != nil {
		return err
	}
	sys, err := fafnir.NewSystem(fafnir.SystemConfig{})
	if err != nil {
		return err
	}
	sysTime := stopwatch(func() {
		for _, b := range bs {
			sys.ResetMemory()
			if _, err = sys.Lookup(b.batch); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	page, err := renderRegistry(reg)
	if err != nil {
		return err
	}
	out["router.lookup_us_per_batch"] = us(fleetTime) / n
	out["router.overhead_ratio"] = ratio(ns(fleetTime), ns(sysTime))
	shardLookups, busiest := 0.0, 0.0
	for s := 0; s < fcfg.Fleet.Shards; s++ {
		v := page[fmt.Sprintf(`fafnir_router_shard_lookups_total{shard="%d"}`, s)]
		shardLookups += v
		busiest = max(busiest, v)
	}
	out["router.shard_lookups_per_batch"] = shardLookups / float64(lookups)
	out["router.shard_imbalance"] = ratio(busiest, shardLookups/float64(fcfg.Fleet.Shards))
	out["router.failovers_total"] = page.sumPrefix("fafnir_router_failovers_total")
	out["router.probes_total"] = page.sumPrefix("fafnir_router_probes_total")
	out["router.degraded_batches_total"] = page["fafnir_router_degraded_batches_total"]
	out["router.lost_queries_total"] = page["fafnir_router_lost_queries_total"]

	fd, err := fafnir.NewFederation(fcfg)
	if err != nil {
		return err
	}
	fedTime := stopwatch(func() {
		for _, b := range bs {
			if _, err = fd.Lookup(b.batch); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	out["federation.lookup_us_per_batch"] = us(fedTime) / n

	// rnet: the reductions one federation batch performs, on partials of
	// the batch's own shape: a radix-2 tree over each fleet's shards, then
	// one over the fleets. Leaves are ready at cycle 0.
	rcfg := rnet.Config{Radix: fcfg.Fleet.Rnet.Radix}
	shardTree, err := rnet.NewTree(fcfg.Fleet.Shards, rcfg)
	if err != nil {
		return err
	}
	fleetTree, err := rnet.NewTree(fcfg.Fleets, rcfg)
	if err != nil {
		return err
	}
	r, err := newRig()
	if err != nil {
		return err
	}
	// partials[b][fleet][shard] holds one vector per query, nil where the
	// shard owns none of the query's rows.
	partials := make([][][]*rnet.Partial, len(bs))
	for i, b := range bs {
		partials[i] = make([][]*rnet.Partial, fcfg.Fleets)
		for f := range partials[i] {
			partials[i][f] = make([]*rnet.Partial, fcfg.Fleet.Shards)
			for s := range partials[i][f] {
				partials[i][f][s] = &rnet.Partial{Vectors: make([]tensor.Vector, len(b.batch.Queries))}
			}
		}
		for q, query := range b.batch.Queries {
			for _, idx := range query.Indices {
				owner := fd.OwnerOf(idx)
				p := partials[i][owner/fcfg.Fleet.Shards][owner%fcfg.Fleet.Shards]
				if p.Vectors[q] == nil {
					p.Vectors[q] = tensor.New(vectorDim)
				}
				_ = tensor.OpSum.Apply(p.Vectors[q], r.store.MustVector(idx))
			}
		}
	}
	var combines, fires, links, missing, critical float64
	reduce := stopwatch(func() {
		combines, fires, links, missing, critical = 0, 0, 0, 0, 0
		for i, b := range bs {
			nq := len(b.batch.Queries)
			top := make([]*rnet.Partial, fcfg.Fleets)
			for f := range top {
				var res *rnet.Result
				if res, err = shardTree.Reduce(tensor.OpSum, nq, partials[i][f]); err != nil {
					return
				}
				top[f] = &rnet.Partial{Vectors: res.Outputs, Ready: res.CriticalPath}
				combines, fires = combines+float64(res.Combines), fires+float64(res.Fires)
				links, missing = links+float64(res.LinkTransfers), missing+float64(res.MissingChildren)
			}
			var res *rnet.Result
			if res, err = fleetTree.Reduce(tensor.OpSum, nq, top); err != nil {
				return
			}
			combines, fires = combines+float64(res.Combines), fires+float64(res.Fires)
			links, missing = links+float64(res.LinkTransfers), missing+float64(res.MissingChildren)
			critical += float64(res.CriticalPath)
		}
	})
	if err != nil {
		return err
	}
	out["rnet.reduce_us"] = us(reduce) / n
	out["rnet.combines_per_batch"] = combines / n
	out["rnet.switch_fires_per_batch"] = fires / n
	out["rnet.link_transfers_per_batch"] = links / n
	out["rnet.critical_path_cycles_mean"] = critical / n
	out["rnet.missing_children_total"] = missing
	return nil
}

// renderRegistry renders a registry the way /metrics does and parses it
// back, so a drill reads counters exactly as a scrape would.
func renderRegistry(reg *telemetry.Registry) (metrics, error) {
	var page bytes.Buffer
	reg.Render(&page)
	return parseMetrics(bufio.NewScanner(&page))
}
