package exp

import (
	"hash/fnv"
	"math"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/sim"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/tensor"
	"fafnir/internal/twostep"
)

// spmvPin is one engine's outcome on one workload: the phase split
// (multiply is Two-Step's step 1), the total, the traffic and a hash of the
// product's float bits.
type spmvPin struct {
	multiply, merge, total sim.Cycle
	elems                  int
	bytes                  uint64
	y                      uint64
}

func hashVector(v tensor.Vector) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, f := range v {
		u := math.Float32bits(f)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// pinnedSpMV was recorded at 4466f92, before the Fig. 8 schedule moved behind
// spmv.Schedule: both engines on the Fig. 14 suite at the paper's geometry,
// then on 8 ranks at vector sizes that give zero, one and two merge
// iterations, and on a matrix whose partial sums cancel to exactly zero
// inside a chunk (Fafnir re-streams them, Two-Step drops them). A refactor
// of the schedule must leave every cell as it is.
var pinnedSpMV = []struct {
	name     string
	faf, two spmvPin
}{
	{"SC-small (banded 2k, dense band)", spmvPin{1644, 0, 1644, 376688, 3013504, 0xdc418868677d7bec}, spmvPin{6026, 0, 6026, 376688, 3013504, 0xdc418868677d7bec}},
	{"SC-medium (banded 8k)", spmvPin{4350, 272, 4622, 1036224, 8289792, 0xf907ea8e01fe00b}, spmvPin{16203, 227, 16430, 1036173, 8289384, 0xf907ea8e01fe00b}},
	{"SC-large (banded 32k)", spmvPin{8794, 656, 9450, 2111904, 16895232, 0x652e2956413015cf}, spmvPin{32638, 481, 33119, 2111654, 16893232, 0x652e2956413015cf}},
	{"GR-small (powerlaw 2k)", spmvPin{860, 0, 860, 180202, 1441616, 0x4466f917076a6009}, spmvPin{2956, 0, 2956, 180202, 1441616, 0x4466f917076a6009}},
	{"GR-medium (powerlaw 8k)", spmvPin{1244, 631, 1875, 285104, 2280832, 0x4dff84a1edfa1d4b}, spmvPin{4106, 444, 4550, 282884, 2263072, 0x4dff84a1edfa1d4b}},
	{"GR-large (powerlaw 32k)", spmvPin{3251, 4236, 7487, 773299, 6186392, 0x48b3b5285d76d291}, spmvPin{8137, 2584, 10721, 745806, 5966448, 0x48b3b5285d76d291}},
	{"RO (sparse uniform 32k)", spmvPin{1639, 2774, 4413, 373347, 2986776, 0xa7a5dbce7110b293}, spmvPin{3351, 1715, 5066, 355959, 2847672, 0xa7a5dbce7110b293}},
	{"uniform 90x300, V=512 (no merge)", spmvPin{110, 0, 110, 1350, 10800, 0x55e6c9c60bedea9e}, spmvPin{166, 0, 166, 1350, 10800, 0x55e6c9c60bedea9e}},
	{"uniform 90x300, V=32 (one merge)", spmvPin{168, 95, 263, 2034, 16272, 0x55e6c9c60bedea9e}, spmvPin{221, 147, 368, 1970, 15760, 0x55e6c9c60bedea9e}},
	{"uniform 90x300, V=4 (two merges)", spmvPin{584, 414, 998, 4130, 33040, 0x55e6c9c60bedea9e}, spmvPin{640, 597, 1237, 3867, 30936, 0x55e6c9c60bedea9e}},
	{"cancelling 4x12, V=4", spmvPin{104, 85, 189, 12, 96, 0xf7d7737f903cac45}, spmvPin{160, 141, 301, 10, 80, 0xf7d7737f903cac45}},
}

func pinOf(r *spmv.Result) spmvPin {
	return spmvPin{r.MultiplyCycles, r.MergeCycles, r.TotalCycles, r.ElementsStreamed, r.BytesStreamed, hashVector(r.Y)}
}

func TestSpMVCyclesPinned(t *testing.T) {
	type shape struct {
		name  string
		m     *sparse.LIL
		x     tensor.Vector
		ranks int
		width int
	}
	var shapes []shape
	for _, wl := range Fig14Suite() {
		shapes = append(shapes, shape{wl.name, wl.m, nil, 32, 2048})
	}
	cancel, err := sparse.FromCOO(&sparse.COO{Rows: 4, Cols: 12, Entries: []sparse.Coord{
		{Row: 0, Col: 0, Val: 3}, {Row: 0, Col: 2, Val: -3}, {Row: 0, Col: 5, Val: 2},
		{Row: 1, Col: 1, Val: 1}, {Row: 1, Col: 9, Val: 4},
		{Row: 2, Col: 8, Val: -1}, {Row: 2, Col: 10, Val: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ones := tensor.New(12)
	for i := range ones {
		ones[i] = 1
	}
	uniform := sparse.RandomUniform(90, 300, 0.05, 3)
	shapes = append(shapes,
		shape{"uniform 90x300, V=512 (no merge)", uniform, nil, 8, 512},
		shape{"uniform 90x300, V=32 (one merge)", uniform, nil, 8, 32},
		shape{"uniform 90x300, V=4 (two merges)", uniform, nil, 8, 4},
		shape{"cancelling 4x12, V=4", cancel, ones, 8, 4},
	)
	if len(pinnedSpMV) != len(shapes) {
		t.Fatalf("pinnedSpMV has %d rows for %d shapes", len(pinnedSpMV), len(shapes))
	}
	for i, s := range shapes {
		x := s.x
		if x == nil {
			x = sparse.DenseVector(s.m.Cols, 7)
		}
		fcfg := spmv.Default()
		fcfg.Tree.NumRanks, fcfg.VectorSize = s.ranks, s.width
		fe, err := spmv.NewEngine(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := fe.Multiply(s.m, x, dram.MustSystem(dram.DDR4()))
		if err != nil {
			t.Fatal(err)
		}
		tcfg := twostep.Default()
		tcfg.Ranks, tcfg.VectorSize = s.ranks, s.width
		te, err := twostep.NewEngine(tcfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := te.Multiply(s.m, x, dram.MustSystem(dram.DDR4()))
		if err != nil {
			t.Fatal(err)
		}
		faf, two := pinOf(fr), pinOf(tr)
		want := pinnedSpMV[i]
		if want.name != s.name {
			t.Fatalf("row %d is %q, table says %q", i, s.name, want.name)
		}
		if faf != want.faf {
			t.Errorf("%s: fafnir %+v, pinned %+v", s.name, faf, want.faf)
		}
		if two != want.two {
			t.Errorf("%s: two-step %+v, pinned %+v", s.name, two, want.two)
		}
	}
}
