package exp

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/energy"
	"fafnir/internal/fafnir"
	"fafnir/internal/hwmodel"
	"fafnir/internal/recnmp"
)

func init() {
	register("fig3", Fig3)
	register("table1", Table1)
	register("table4", Table4)
	register("fig11", Fig11)
	register("fig12", Fig12)
	register("fig13", Fig13)
	register("fig15", Fig15)
	register("table5", Table5)
	register("table6", Table6)
	register("fig16", Fig16)
}

// Fig3 reproduces "The percentage of unique indices in batches of queries":
// the fraction of a batch's accesses that remain after deduplication, per
// batch size, averaged over several drawn batches.
func Fig3() (*Report, error) {
	w := PaperWorkload()
	rep := &Report{
		ID:     "fig3",
		Title:  "percentage of unique indices in batches of queries",
		Header: []string{"batch", "unique indices", "total accesses", "unique %"},
	}
	const trials = 8
	for _, n := range []int{8, 16, 32} {
		var unique, total int
		for s := int64(0); s < trials; s++ {
			b, err := w.Batch(n, s)
			if err != nil {
				return nil, err
			}
			u, t, _ := dedupStats(b)
			unique += u
			total += t
		}
		rep.AddRow(itoa(n), itoa(unique/trials), itoa(total/trials),
			pct(float64(unique)/float64(total)))
	}
	rep.AddNote("Zipf(s=%.2f) synthetic popularity standing in for production traces", w.ZipfS)
	return rep, nil
}

// Table1 reproduces the PE and node buffer sizing.
func Table1() (*Report, error) {
	rep := &Report{
		ID:     "table1",
		Title:  "total buffer size for PEs and nodes",
		Header: []string{"batch", "PE buffer KB (model)", "DIMM/rank node KB (model)", "PE KB (paper)", "node KB (paper)"},
	}
	for _, b := range []int{8, 16, 32} {
		spec := hwmodel.PaperBuffers(b)
		pub := hwmodel.TableIPublished[b]
		rep.AddRow(itoa(b),
			f1(hwmodel.KB(spec.PEBufferBytes())),
			f1(hwmodel.KB(spec.NodeBufferBytes(7))),
			f1(pub.PEKB), f1(pub.NodeKB))
	}
	rep.AddNote("model: two input FIFOs of B entries x (512 B value + %d B header)",
		hwmodel.PaperBuffers(8).HeaderBytes())
	return rep, nil
}

// Table4 reports the compute-unit latencies driving every PE pipeline stage.
func Table4() (*Report, error) {
	l := fafnir.TableIV()
	rep := &Report{
		ID:     "table4",
		Title:  "latency (cycles @200MHz) of compute-unit components",
		Header: []string{"operation", "cycles"},
	}
	rep.AddRow("compare", fmt.Sprintf("%d", l.Compare))
	rep.AddRow("reduce (value)", fmt.Sprintf("%d", l.ReduceValue))
	rep.AddRow("reduce (header)", fmt.Sprintf("%d", l.ReduceHeader))
	rep.AddRow("forward", fmt.Sprintf("%d", l.Forward))
	rep.AddRow("pipeline stage (critical path)", fmt.Sprintf("%d", l.StageLatency()))
	rep.AddNote("critical path = compare + reduce; reduce and forward run on parallel paths")
	return rep, nil
}

// Fig11 reproduces the single-query latency breakdown: one query of 16
// 512 B vectors over 32 ranks, memory vs compute time per design.
func Fig11() (*Report, error) {
	w := PaperWorkload()
	eng, err := newEngines(w, 32)
	if err != nil {
		return nil, err
	}
	b, err := w.Batch(1, 11)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:     "fig11",
		Title:  "single-query latency (us): memory vs compute",
		Header: []string{"design", "memory us", "compute us", "total us"},
	}

	base, err := eng.base.TimedLookup(eng.store, eng.layout, eng.mem(), b)
	if err != nil {
		return nil, err
	}
	rep.AddRow("Baseline (no NDP)", f2(micros(base.MemCycles)), f2(micros(base.ComputeCycles)), f2(micros(base.TotalCycles)))

	tdm, err := eng.tdm.TimedLookup(eng.store, eng.mem(), b)
	if err != nil {
		return nil, err
	}
	rep.AddRow("TensorDIMM", f2(micros(tdm.MemCycles)), f2(micros(tdm.ComputeCycles)), f2(micros(tdm.TotalCycles)))

	rec, err := eng.rec.TimedLookup(eng.store, eng.layout, eng.mem(), b)
	if err != nil {
		return nil, err
	}
	rep.AddRow("RecNMP", f2(micros(rec.MemCycles)),
		f2(micros(rec.NDPComputeCycles+rec.HostComputeCycles)), f2(micros(rec.TotalCycles)))

	faf, err := eng.faf.TimedLookup(eng.store, eng.layout, eng.mem(), b, true)
	if err != nil {
		return nil, err
	}
	rep.AddRow("Fafnir", f2(micros(faf.MemCycles)),
		f2(micros(faf.ComputeCycles+faf.TransferCycles)), f2(micros(faf.TotalCycles)))

	if tdm.MemCycles > 0 && faf.MemCycles > 0 {
		rep.AddNote("TensorDIMM memory / Fafnir memory = %.2fx (paper: 4.45x, up to 16x with no row hits)",
			float64(tdm.MemCycles)/float64(faf.MemCycles))
	}
	rep.AddNote("RecNMP NDP fraction: %s (paper example: ~75%%)", pct(rec.NDPFraction()))
	return rep, nil
}

// Fig12 reproduces the end-to-end inference speedup over the 1-rank
// configuration as ranks grow from 2 to 32, for RecNMP and Fafnir, against
// the ideal linear line. FC layers contribute a fixed 0.5 ms.
func Fig12() (*Report, error) {
	const n = 2048 // queries per inference (large pooling batch)
	rep := &Report{
		ID:     "fig12",
		Title:  "end-to-end inference speedup over 1-rank baseline",
		Header: []string{"ranks", "RecNMP lookup ms", "Fafnir lookup ms", "RecNMP speedup", "Fafnir speedup", "ideal speedup"},
	}

	type point struct{ rec, faf float64 }
	points := map[int]point{}
	rankSweep := []int{1, 2, 4, 8, 16, 32}
	for _, ranks := range rankSweep {
		w := PaperWorkload()
		mem, err := dram.DDR4Ranks(ranks)
		if err != nil {
			return nil, err
		}
		w.Mem = mem
		layout := w.Layout()
		store := w.Store(layout)
		b, err := w.Batch(n, 12)
		if err != nil {
			return nil, err
		}

		fcfg := fafnir.Default()
		fcfg.NumRanks = ranks
		fcfg.LeafFanIn = 1
		if ranks%2 == 0 {
			fcfg.LeafFanIn = 2
		}
		faf, err := fafnir.NewEngine(fcfg)
		if err != nil {
			return nil, err
		}
		rec, err := recnmp.NewEngine(recnmp.Default())
		if err != nil {
			return nil, err
		}

		fres, err := faf.TimedLookup(store, layout, dram.MustSystem(w.Mem), b, true)
		if err != nil {
			return nil, err
		}
		rres, err := rec.TimedLookup(store, layout, dram.MustSystem(w.Mem), b)
		if err != nil {
			return nil, err
		}
		points[ranks] = point{rec: seconds(rres.TotalCycles), faf: seconds(fres.TotalCycles)}
	}

	fc := 0.5e-3
	other := 0.1e-3
	inferRec := func(r int) float64 { return points[r].rec + fc + other }
	inferFaf := func(r int) float64 { return points[r].faf + fc + other }
	// The ideal line scales the 1-rank Fafnir lookup linearly with ranks
	// and keeps the fixed stages — the red line of the paper's figure.
	ideal := func(r int) float64 {
		return inferFaf(1) / (points[1].faf/float64(r) + fc + other)
	}
	for _, ranks := range rankSweep[1:] {
		rep.AddRow(itoa(ranks),
			f2(points[ranks].rec*1e3), f2(points[ranks].faf*1e3),
			f2(inferRec(1)/inferRec(ranks)), f2(inferFaf(1)/inferFaf(ranks)),
			f2(ideal(ranks)))
	}
	rep.AddNote("%d queries per inference; FC fixed at 0.5 ms, other 0.1 ms", n)
	rep.AddNote("Fafnir follows the ideal line to 32 ranks; RecNMP falls away as spatial locality vanishes")
	return rep, nil
}

// Fig13 reproduces throughput speedup over RecNMP for batch sizes 8, 16, 32:
// TensorDIMM (slower than RecNMP), Fafnir without redundant-access
// elimination, and Fafnir with it (the striped extra).
func Fig13() (*Report, error) {
	w := PaperWorkload()
	rep := &Report{
		ID:     "fig13",
		Title:  "speedup over RecNMP vs batch size",
		Header: []string{"batch", "TensorDIMM", "Fafnir (no dedup)", "Fafnir (+dedup)", "dedup extra"},
	}
	const rounds = 8 // consecutive batches, so pipeline fills amortize
	for _, n := range []int{8, 16, 32} {
		eng, err := newEngines(w, n)
		if err != nil {
			return nil, err
		}
		b, err := w.Batch(n*rounds, int64(13+n))
		if err != nil {
			return nil, err
		}
		rec, err := eng.rec.TimedLookup(eng.store, eng.layout, eng.mem(), b)
		if err != nil {
			return nil, err
		}
		tdm, err := eng.tdm.TimedLookup(eng.store, eng.mem(), b)
		if err != nil {
			return nil, err
		}
		fafRaw, err := eng.faf.TimedLookup(eng.store, eng.layout, eng.mem(), b, false)
		if err != nil {
			return nil, err
		}
		fafDedup, err := eng.faf.TimedLookup(eng.store, eng.layout, eng.mem(), b, true)
		if err != nil {
			return nil, err
		}
		recT := float64(rec.TotalCycles)
		rep.AddRow(itoa(n),
			f2(recT/float64(tdm.TotalCycles)),
			f2(recT/float64(fafRaw.TotalCycles)),
			f2(recT/float64(fafDedup.TotalCycles)),
			f2(float64(fafRaw.TotalCycles)/float64(fafDedup.TotalCycles)))
	}
	rep.AddNote("paper: Fafnir no-dedup 3.1/6.7/12.3x, with dedup 9.9/15.4/21.3x; TensorDIMM ~1/15x of RecNMP")
	return rep, nil
}

// Fig15 reproduces the memory-access savings of batch deduplication and the
// resulting DRAM energy savings.
func Fig15() (*Report, error) {
	w := PaperWorkload()
	model := energy.DDR4()
	rep := &Report{
		ID:     "fig15",
		Title:  "memory accesses after eliminating redundant accesses",
		Header: []string{"batch", "accesses (raw)", "accesses (dedup)", "savings", "accesses/leaf input", "energy savings"},
	}
	const trials = 8
	for _, n := range []int{8, 16, 32} {
		var unique, total int
		for s := int64(0); s < trials; s++ {
			b, err := w.Batch(n, 100+s)
			if err != nil {
				return nil, err
			}
			u, t, _ := dedupStats(b)
			unique += u
			total += t
		}
		unique /= trials
		total /= trials
		// Leaf inputs: 32 ranks feed 16 leaf PEs with two inputs each.
		perInput := float64(unique) / 32.0
		sav := energy.AccessSavings(total, unique)
		// Energy ratio follows access counts (activates and bursts scale
		// with reads for random single-vector accesses).
		eSave := model.Savings(
			energy.Counts{Activates: uint64(total), Bursts: uint64(total) * 8},
			energy.Counts{Activates: uint64(unique), Bursts: uint64(unique) * 8},
		)
		rep.AddRow(itoa(n), itoa(total), itoa(unique), pct(sav), f1(perInput), pct(eSave))
	}
	rep.AddNote("paper: 34%%, 43%%, 58%% access savings for batches 8, 16, 32")
	rep.AddNote("accesses per leaf input stay below the batch size (Fig. 15's per-input view)")
	return rep, nil
}

// Table5 reports the FPGA resource utilization.
func Table5() (*Report, error) {
	rep := &Report{
		ID:     "table5",
		Title:  "FPGA (XCVU9P) resource utilization (published)",
		Header: []string{"unit", "LUT %", "LUTRAM %", "FF %", "BRAM %"},
	}
	for _, row := range hwmodel.TableV() {
		rep.AddRow(row.Name, f2(row.LUTPct), f2(row.LUTRAMPct), f2(row.FFPct), f2(row.BRAMPct))
	}
	rep.AddNote("published constants; no FPGA flow in this reproduction")
	return rep, nil
}

// Table6 reports the ASIC area/power model and derived system totals.
func Table6() (*Report, error) {
	a := hwmodel.TableVI()
	rep := &Report{
		ID:     "table6",
		Title:  "7 nm ASIC area and power",
		Header: []string{"unit", "area mm^2", "power mW"},
	}
	rep.AddRow("PE", f2(a.PEAreaMM2), "-")
	rep.AddRow("leaf PE (with SpMV multipliers)", f2(a.LeafPEAreaMM2), "-")
	rep.AddRow("DIMM/rank node (7 PEs)", f2(a.DIMMRankNodeAreaMM2), f2(a.DIMMRankNodePowerMW))
	rep.AddRow("channel node (3 PEs)", f2(a.ChannelNodeAreaMM2), f2(a.ChannelNodePowerMW))
	rep.AddRow("full system (4+1 nodes)", f2(a.SystemArea(4, 1)), f2(a.SystemPowerMW(4, 1)))
	rep.AddRow("RecNMP PU per DIMM (40 nm)", f2(a.RecNMPPUAreaMM2), f2(a.RecNMPPUPowerMW))
	rep.AddNote("a DDR4 DIMM draws ~%.0f W; Fafnir adds %.1f mW per four DIMMs", a.DDR4DIMMPowerW, a.DIMMRankNodePowerMW)
	tree, err := fafnir.NewTree(fafnir.Default())
	if err != nil {
		return nil, err
	}
	rep.AddNote("%s", hwmodel.DescribeTree(tree, a))
	return rep, nil
}

// Fig16 reports the power breakdowns.
func Fig16() (*Report, error) {
	rep := &Report{
		ID:     "fig16",
		Title:  "power breakdown (FPGA dynamic; ASIC PE distribution)",
		Header: []string{"unit", "component", "share"},
	}
	for _, p := range hwmodel.Fig16a() {
		for _, s := range p.Breakdown {
			rep.AddRow(fmt.Sprintf("%s (%.2f W)", p.Name, p.TotalW), s.Component, pct(s.Fraction))
		}
	}
	for _, s := range hwmodel.Fig16b() {
		rep.AddRow("ASIC PE", s.Component, pct(s.Fraction))
	}
	rep.AddNote("uniform PE distribution prevents hot spots (paper Fig. 16b)")
	return rep, nil
}
