package exp

import (
	"fmt"

	"fafnir/internal/batch"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/energy"
	"fafnir/internal/fafnir"
	"fafnir/internal/hwmodel"
	"fafnir/internal/memmap"
	"fafnir/internal/recnmp"
	"fafnir/internal/router"
	"fafnir/internal/sim"
	"fafnir/internal/tensor"
)

func init() {
	register("abl-fanin", AblFanIn)
	register("abl-page", AblPagePolicy)
	register("abl-cache", AblCacheVsDedup)
	register("abl-skew", AblSkew)
	register("abl-occupancy", AblOccupancy)
	register("abl-interactive", AblInteractive)
	register("abl-hbm", AblHBM)
	register("abl-load", AblLoad)
	register("abl-scaleout", AblScaleOut)
	register("abl-energy", AblEnergy)
}

// AblFanIn sweeps the leaf fan-in (the paper's 1PE:1R, 1PE:2R, 1PE:4R
// packaging options): fewer PEs save area but deepen each leaf's serial
// input streams.
func AblFanIn() (*Report, error) {
	w := PaperWorkload()
	rep := &Report{
		ID:     "abl-fanin",
		Title:  "ablation: leaf fan-in (ranks per leaf PE)",
		Header: []string{"fan-in", "PEs", "latency us", "max occupancy"},
	}
	b, err := w.Batch(32, 70)
	if err != nil {
		return nil, err
	}
	layout := w.Layout()
	store := w.Store(layout)
	for _, fan := range []int{1, 2, 4} {
		cfg := fafnir.Default()
		cfg.LeafFanIn = fan
		eng, err := fafnir.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		res, err := eng.TimedLookup(store, layout, dram.MustSystem(w.Mem), b, true)
		if err != nil {
			return nil, err
		}
		rep.AddRow(fmt.Sprintf("1PE:%dR", fan), itoa(eng.Tree().NumPEs()),
			f2(micros(res.TotalCycles)), itoa(res.MaxOccupancy))
	}
	rep.AddNote("the paper fabricates 1PE:2R; 1PE:1R doubles the PE count for marginal latency")
	return rep, nil
}

// AblPagePolicy compares open-page (the paper's assumption) against a
// closed-page controller for Fafnir and TensorDIMM: TensorDIMM barely
// changes (its accesses rarely hit anyway), while row-major designs lose
// their burst locality.
func AblPagePolicy() (*Report, error) {
	w := PaperWorkload()
	rep := &Report{
		ID:     "abl-page",
		Title:  "ablation: open vs closed row-buffer policy",
		Header: []string{"design", "policy", "memory us", "row hits"},
	}
	b, err := w.Batch(32, 71)
	if err != nil {
		return nil, err
	}
	for _, closed := range []bool{false, true} {
		mcfg := w.Mem
		mcfg.ClosedPage = closed
		policy := "open"
		if closed {
			policy = "closed"
		}
		layout := memmap.Uniform(mcfg, 512, 32, w.RowsPer)
		store := w.Store(layout)

		eng, err := newEngines(Workload{Mem: mcfg, RowsPer: w.RowsPer, Q: w.Q, ZipfS: w.ZipfS, Seed: w.Seed}, 32)
		if err != nil {
			return nil, err
		}
		mem := dram.MustSystem(mcfg)
		fres, err := eng.faf.TimedLookup(store, layout, mem, b, true)
		if err != nil {
			return nil, err
		}
		rep.AddRow("Fafnir", policy, f2(micros(fres.MemCycles)),
			itoa(int(mem.Stats().Counter("dram.row_hits"))))

		mem2 := dram.MustSystem(mcfg)
		tres, err := eng.tdm.TimedLookup(store, mem2, b)
		if err != nil {
			return nil, err
		}
		rep.AddRow("TensorDIMM", policy, f2(micros(tres.MemCycles)),
			itoa(int(mem2.Stats().Counter("dram.row_hits"))))
	}
	rep.AddNote("open-page burst locality is what row-major whole-vector reads exploit")
	return rep, nil
}

// AblCacheVsDedup contrasts RecNMP's cache sizes with Fafnir's cache-free
// deduplication (Section III-E vs Section IV-A).
func AblCacheVsDedup() (*Report, error) {
	w := PaperWorkload()
	rep := &Report{
		ID:     "abl-cache",
		Title:  "ablation: RecNMP cache size vs Fafnir dedup",
		Header: []string{"design", "mechanism", "DRAM reads", "hit/save rate", "latency us"},
	}
	layout := w.Layout()
	store := w.Store(layout)
	// A long run so caches warm up: 16 batches of 32.
	b, err := w.Batch(512, 72)
	if err != nil {
		return nil, err
	}
	raw := b.TotalAccesses()

	for _, cacheKB := range []int{0, 32, 128, 512} {
		cfg := recnmp.Default()
		cfg.CacheBytes = cacheKB << 10
		eng, err := recnmp.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		res, err := eng.TimedLookup(store, layout, dram.MustSystem(w.Mem), b)
		if err != nil {
			return nil, err
		}
		rep.AddRow("RecNMP", fmt.Sprintf("%d KB cache/rank", cacheKB),
			itoa(res.MemoryReads), pct(eng.CacheHitRate()), f2(micros(res.TotalCycles)))
	}

	fcfg := fafnir.Default()
	feng, err := fafnir.NewEngine(fcfg)
	if err != nil {
		return nil, err
	}
	fres, err := feng.TimedLookup(store, layout, dram.MustSystem(w.Mem), b, true)
	if err != nil {
		return nil, err
	}
	rep.AddRow("Fafnir", "batch dedup (no cache)",
		itoa(fres.MemoryReads), pct(1-float64(fres.MemoryReads)/float64(raw)), f2(micros(fres.TotalCycles)))
	rep.AddNote("the paper: caches peak near 50%% hit rate at 128 KB; dedup needs no storage")
	return rep, nil
}

// AblSkew sweeps the index-popularity skew: the dedup advantage exists only
// when batches share indices.
func AblSkew() (*Report, error) {
	rep := &Report{
		ID:     "abl-skew",
		Title:  "ablation: popularity skew vs dedup benefit",
		Header: []string{"distribution", "unique %", "Fafnir raw us", "Fafnir dedup us", "dedup gain"},
	}
	layout := PaperWorkload().Layout()
	store := PaperWorkload().Store(layout)
	feng, err := fafnir.NewEngine(fafnir.Default())
	if err != nil {
		return nil, err
	}
	for _, s := range []float64{0, 1.1, 1.3, 1.6, 2.0} {
		w := PaperWorkload()
		w.ZipfS = s
		label := fmt.Sprintf("zipf s=%.1f", s)
		var b embedding.Batch
		if s == 0 {
			label = "uniform"
			gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
				NumQueries: 32, QuerySize: 16, Rows: layout.TotalRows(), Seed: 73,
			})
			if err != nil {
				return nil, err
			}
			b = gen.Batch(tensor.OpSum)
		} else {
			var err error
			b, err = w.Batch(32, 73)
			if err != nil {
				return nil, err
			}
		}
		plan := batch.Build(b, true)
		raw, err := feng.TimedLookup(store, layout, dram.MustSystem(w.Mem), b, false)
		if err != nil {
			return nil, err
		}
		dedup, err := feng.TimedLookup(store, layout, dram.MustSystem(w.Mem), b, true)
		if err != nil {
			return nil, err
		}
		rep.AddRow(label, pct(1-plan.Savings()),
			f2(micros(raw.TotalCycles)), f2(micros(dedup.TotalCycles)),
			f2(float64(raw.TotalCycles)/float64(dedup.TotalCycles)))
	}
	rep.AddNote("uniform batches share almost nothing; production-like skew is where dedup pays")
	return rep, nil
}

// AblOccupancy validates the min(nm+n+m, B) buffer bound across batch
// capacities: the observed maximum PE occupancy must stay within B.
func AblOccupancy() (*Report, error) {
	w := PaperWorkload()
	rep := &Report{
		ID:     "abl-occupancy",
		Title:  "ablation: PE occupancy vs batch capacity (buffer bound)",
		Header: []string{"B", "max occupancy", "bound min(nm+n+m, B)", "within bound"},
	}
	layout := w.Layout()
	store := w.Store(layout)
	for _, capacity := range []int{4, 8, 16, 32, 64} {
		cfg := fafnir.Default()
		cfg.BatchCapacity = capacity
		eng, err := fafnir.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		b, err := w.Batch(capacity, int64(74+capacity))
		if err != nil {
			return nil, err
		}
		res, err := eng.TimedLookup(store, layout, dram.MustSystem(w.Mem), b, true)
		if err != nil {
			return nil, err
		}
		ok := "yes"
		if err := fafnir.CheckOccupancyBound(&res.Result, capacity); err != nil {
			ok = "NO"
		}
		rep.AddRow(itoa(capacity), itoa(res.MaxOccupancy), itoa(capacity), ok)
	}
	rep.AddNote("Section IV-B: merging keeps every PE's outputs within the batch size")
	return rep, nil
}

// AblInteractive compares the interactive (comparison-free, one query at a
// time) mode against the batch path for latency-sensitive serving.
func AblInteractive() (*Report, error) {
	w := PaperWorkload()
	rep := &Report{
		ID:     "abl-interactive",
		Title:  "ablation: interactive vs batch processing",
		Header: []string{"queries", "interactive us", "batch us", "batch advantage"},
	}
	layout := w.Layout()
	store := w.Store(layout)
	eng, err := fafnir.NewEngine(fafnir.Default())
	if err != nil {
		return nil, err
	}
	for _, n := range []int{1, 4, 16, 64} {
		b, err := w.Batch(n, int64(75+n))
		if err != nil {
			return nil, err
		}
		inter, err := eng.InteractiveLookup(store, layout, dram.MustSystem(w.Mem), b)
		if err != nil {
			return nil, err
		}
		batched, err := eng.TimedLookup(store, layout, dram.MustSystem(w.Mem), b, true)
		if err != nil {
			return nil, err
		}
		rep.AddRow(itoa(n), f2(micros(inter.TotalCycles)), f2(micros(batched.TotalCycles)),
			f2(float64(inter.TotalCycles)/float64(batched.TotalCycles)))
	}
	rep.AddNote("interactive mode wins single queries (no header compares); batching wins throughput")
	return rep, nil
}

// AblHBM runs the paper's future-work integration: leaf PEs attached to the
// 32 pseudo channels of an HBM2 stack instead of DDR4 ranks.
func AblHBM() (*Report, error) {
	rep := &Report{
		ID:     "abl-hbm",
		Title:  "ablation: DDR4 ranks vs HBM2 pseudo channels (future work)",
		Header: []string{"memory", "batch", "memory us", "total us"},
	}
	for _, mk := range []struct {
		name string
		cfg  dram.Config
	}{
		{"DDR4 32 ranks", dram.DDR4()},
		{"HBM2 32 pseudo-ch", dram.HBM2()},
	} {
		layout := memmap.Uniform(mk.cfg, 512, 32, 1<<17)
		store := embedding.MustStore(layout.TotalRows(), 128, 1)
		cfg := fafnir.Default()
		cfg.DRAMClockMHz = mk.cfg.ClockMHz
		eng, err := fafnir.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		for _, n := range []int{8, 32} {
			gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
				NumQueries: n, QuerySize: 16, Rows: layout.TotalRows(),
				Dist: embedding.Zipf, ZipfS: 1.3, Seed: 76,
			})
			if err != nil {
				return nil, err
			}
			b := gen.Batch(tensor.OpSum)
			res, err := eng.TimedLookup(store, layout, dram.MustSystem(mk.cfg), b, true)
			if err != nil {
				return nil, err
			}
			rep.AddRow(mk.name, itoa(n), f2(micros(res.MemCycles)), f2(micros(res.TotalCycles)))
		}
	}
	rep.AddNote("HBM2's per-pseudo-channel buses and higher clock cut the gather time")
	return rep, nil
}

// AblLoad sweeps the offered arrival rate of 16-query batches through the
// Fafnir tree and reports the queueing curve: latency stays near the service
// time until the arrival interval approaches it, then the queue builds and
// latency inflates while throughput saturates.
func AblLoad() (*Report, error) {
	w := PaperWorkload()
	rep := &Report{
		ID:     "abl-load",
		Title:  "ablation: offered load vs latency (queueing curve)",
		Header: []string{"arrival interval (x service)", "avg latency us", "max queue", "utilization", "queries/ms"},
	}
	layout := w.Layout()
	store := w.Store(layout)
	eng, err := fafnir.NewEngine(fafnir.Default())
	if err != nil {
		return nil, err
	}
	var batches []embedding.Batch
	for i := 0; i < 24; i++ {
		b, err := w.Batch(16, int64(80+i))
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
	}
	probe, err := eng.OfferedLoad(store, layout, w.Mem, batches[:1], 1)
	if err != nil {
		return nil, err
	}
	svc := probe.AvgService
	for _, mult := range []float64{4, 2, 1.2, 1.0, 0.8, 0.5} {
		interval := sim.Cycle(svc * mult)
		if interval < 1 {
			interval = 1
		}
		res, err := eng.OfferedLoad(store, layout, w.Mem, batches, interval)
		if err != nil {
			return nil, err
		}
		rep.AddRow(f2(mult), f2(res.AvgLatency/200), itoa(res.MaxQueueDepth),
			f2(res.Utilization), f1(res.QueriesPerMillisecond))
	}
	rep.AddNote("service time per 16-query batch: %.2f us", svc/200)
	return rep, nil
}

// AblScaleOut compares one 32-rank tree against sharded fleets with the same
// total memory width. The single tree reduces a query fully at NDP wherever
// its vectors live; sharding brings a combine back — in the fleet's switch
// tree (internal/rnet) rather than at the host, so only the root pool crosses
// the host link, but still on the critical path behind the slowest shard.
func AblScaleOut() (*Report, error) {
	rep := &Report{
		ID:     "abl-scaleout",
		Title:  "ablation: one tree vs sharded trees (same total ranks)",
		Header: []string{"deployment", "shard us", "combine us", "total us", "partials"},
	}
	const rows = 1 << 22
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: 32, QuerySize: 16, Rows: rows, Dist: embedding.Zipf, ZipfS: 1.3, Seed: 90,
	})
	if err != nil {
		return nil, err
	}
	b := gen.Batch(tensor.OpSum)
	for _, shards := range []int{1, 2, 4} {
		fleet, err := router.New(router.Config{Shards: shards, RanksPerShard: 32 / shards, Rows: rows, Parallelism: 1})
		if err != nil {
			return nil, err
		}
		res, err := fleet.Lookup(b)
		if err != nil {
			return nil, err
		}
		// One partial vector leaves a shard per query that touches it.
		partials := 0
		for _, q := range b.Queries {
			touched := make([]bool, shards)
			for _, idx := range q.Indices {
				if s := fleet.OwnerOf(idx); !touched[s] {
					touched[s] = true
					partials++
				}
			}
		}
		rep.AddRow(fmt.Sprintf("%d x %d ranks", shards, 32/shards),
			f2(micros(res.Stages.Backend)), f2(micros(res.Stages.Combine)),
			f2(micros(res.TotalCycles)), itoa(partials))
	}
	rep.AddNote("the single tree needs no combine: full reduction at NDP regardless of placement; a sharded fleet combines in its switch tree and only the root pool crosses the host link")
	return rep, nil
}

// AblEnergy totals memory plus NDP energy per batch for Fafnir (with and
// without dedup) and RecNMP, combining the DRAM event counts with the
// Table VI power figures. It makes the paper's energy argument end to end:
// dedup removes DRAM events, and Fafnir's NDP logic draws an order of
// magnitude less power than RecNMP's per-DIMM processing units.
func AblEnergy() (*Report, error) {
	w := PaperWorkload()
	model := energy.DDR4()
	asic := hwmodel.TableVI()
	rep := &Report{
		ID:     "abl-energy",
		Title:  "ablation: total energy per batch (DRAM + NDP)",
		Header: []string{"design", "DRAM events (act/burst)", "DRAM nJ", "NDP nJ", "total nJ"},
	}
	eng, err := newEngines(w, 32)
	if err != nil {
		return nil, err
	}
	b, err := w.Batch(32, 95)
	if err != nil {
		return nil, err
	}

	row := func(name string, mem *dram.System, runtime sim.Cycle, ndpMW float64) {
		counts := energy.Counts{
			Activates: mem.Stats().Counter("dram.row_misses") + mem.Stats().Counter("dram.row_conflicts"),
			Bursts:    mem.Stats().Counter("dram.bursts"),
			Ranks:     w.Mem.TotalRanks(),
			Runtime:   runtime,
			ClockMHz:  200,
		}
		dramPJ := model.DynamicPJ(counts)
		ndpPJ := energy.AcceleratorPJ(ndpMW, runtime, 200)
		rep.AddRow(name,
			fmt.Sprintf("%d/%d", counts.Activates, counts.Bursts),
			f2(dramPJ/1000), f2(ndpPJ/1000), f2((dramPJ+ndpPJ)/1000))
	}

	fafMW := asic.SystemPowerMW(4, 1)
	mem1 := eng.mem()
	fres, err := eng.faf.TimedLookup(eng.store, eng.layout, mem1, b, true)
	if err != nil {
		return nil, err
	}
	row("Fafnir (dedup)", mem1, fres.TotalCycles, fafMW)

	mem2 := eng.mem()
	fraw, err := eng.faf.TimedLookup(eng.store, eng.layout, mem2, b, false)
	if err != nil {
		return nil, err
	}
	row("Fafnir (no dedup)", mem2, fraw.TotalCycles, fafMW)

	recMW := asic.RecNMPPUPowerMW * float64(w.Mem.Channels*w.Mem.DIMMsPerChannel)
	mem3 := eng.mem()
	rres, err := eng.rec.TimedLookup(eng.store, eng.layout, mem3, b)
	if err != nil {
		return nil, err
	}
	row("RecNMP (128KB caches)", mem3, rres.TotalCycles, recMW)

	rep.AddNote("NDP power: Fafnir %.1f mW system total; RecNMP %.1f mW (%.1f mW x %d DIMMs)",
		fafMW, recMW, asic.RecNMPPUPowerMW, w.Mem.Channels*w.Mem.DIMMsPerChannel)
	rep.AddNote("paper: memory energy savings track the 34-58%% access savings of Fig. 15")
	return rep, nil
}
