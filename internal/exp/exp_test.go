package exp

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"abl-cache", "abl-energy", "abl-fanin", "abl-hbm", "abl-interactive",
		"abl-load", "abl-occupancy", "abl-page", "abl-scaleout", "abl-skew",
		"app-graph", "app-solver",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig3", "fig6", "fig9",
		"table1", "table4", "table5", "table6",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("hello %d", 7)
	s := r.String()
	if !strings.Contains(s, "== x: t ==") || !strings.Contains(s, "hello 7") {
		t.Fatalf("render: %q", s)
	}
}

// cell parses a table cell as float, stripping a trailing %.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestFig3Shape(t *testing.T) {
	rep, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows %v", rep.Rows)
	}
	// Unique fraction falls as the batch grows (more sharing).
	prev := 101.0
	for _, row := range rep.Rows {
		u := cell(t, row[3])
		if u >= prev {
			t.Fatalf("unique %% not decreasing: %v", rep.Rows)
		}
		if u < 20 || u > 95 {
			t.Fatalf("unique %% implausible: %v", u)
		}
		prev = u
	}
}

func TestTable1Shape(t *testing.T) {
	rep, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows %v", rep.Rows)
	}
	// Model buffers double with batch size.
	b8 := cell(t, rep.Rows[0][1])
	b16 := cell(t, rep.Rows[1][1])
	b32 := cell(t, rep.Rows[2][1])
	if b16 < 1.9*b8 || b32 < 1.9*b16 {
		t.Fatalf("buffers not ~linear: %v %v %v", b8, b16, b32)
	}
}

func TestTable4Shape(t *testing.T) {
	rep, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("rows %v", rep.Rows)
	}
	if rep.Rows[4][1] != "28" {
		t.Fatalf("critical path row %v", rep.Rows[4])
	}
}

func TestFig11Shape(t *testing.T) {
	rep, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows %v", rep.Rows)
	}
	get := func(design string) (mem, comp, total float64) {
		for _, row := range rep.Rows {
			if strings.HasPrefix(row[0], design) {
				return cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
			}
		}
		t.Fatalf("design %q missing", design)
		return 0, 0, 0
	}
	bMem, _, bTot := get("Baseline")
	tMem, tComp, tTot := get("TensorDIMM")
	rMem, _, _ := get("RecNMP")
	fMem, fComp, fTot := get("Fafnir")

	// RecNMP and Fafnir memory identical (same layout, same parallelism).
	if rMem != fMem {
		t.Fatalf("RecNMP mem %v != Fafnir mem %v", rMem, fMem)
	}
	// TensorDIMM memory slower (row-buffer hostility).
	if tMem <= fMem {
		t.Fatalf("TensorDIMM mem %v not above Fafnir %v", tMem, fMem)
	}
	// TensorDIMM compute ~2.5x Fafnir's (pipelined vs parallel tree).
	if ratio := tComp / fComp; ratio < 1.5 || ratio > 4 {
		t.Fatalf("TensorDIMM/Fafnir compute ratio %v outside [1.5,4]", ratio)
	}
	// Fafnir fastest overall; baseline and TensorDIMM slower.
	if !(fTot < bTot && fTot < tTot) {
		t.Fatalf("Fafnir total %v not fastest (baseline %v, tensordimm %v)", fTot, bTot, tTot)
	}
	if bMem <= fMem {
		t.Fatalf("baseline memory %v not above Fafnir %v (channel contention)", bMem, fMem)
	}
}

func TestFig13Shape(t *testing.T) {
	rep, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows %v", rep.Rows)
	}
	prevDedup := 0.0
	for _, row := range rep.Rows {
		td := cell(t, row[1])
		raw := cell(t, row[2])
		dedup := cell(t, row[3])
		extra := cell(t, row[4])
		if td >= 1 {
			t.Fatalf("TensorDIMM %v not slower than RecNMP", td)
		}
		if raw <= 1 || dedup <= raw {
			t.Fatalf("Fafnir speedups wrong: raw %v dedup %v", raw, dedup)
		}
		if extra <= 1 {
			t.Fatalf("dedup extra %v", extra)
		}
		if dedup <= prevDedup {
			t.Fatalf("speedup not growing with batch: %v", rep.Rows)
		}
		prevDedup = dedup
	}
}

func TestFig15Shape(t *testing.T) {
	rep, err := Fig15()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, row := range rep.Rows {
		sav := cell(t, row[3])
		if sav <= prev {
			t.Fatalf("savings not growing with batch: %v", rep.Rows)
		}
		if sav < 20 || sav > 80 {
			t.Fatalf("savings %v outside the paper's regime", sav)
		}
		// Per-leaf-input accesses below batch size.
		batchSize := cell(t, row[0])
		perInput := cell(t, row[4])
		if perInput >= batchSize {
			t.Fatalf("accesses per leaf input %v not below batch %v", perInput, batchSize)
		}
		prev = sav
	}
}

func TestFig9Shape(t *testing.T) {
	rep, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		mergeIters := cell(t, row[4])
		v := cell(t, row[1])
		if v == 2048 && mergeIters > 2 {
			t.Fatalf("V=2048 row needs %v merge iterations: %v", mergeIters, row)
		}
	}
}

func TestTables5and6AndFig16(t *testing.T) {
	for _, id := range []string{"table5", "table6", "fig16"} {
		rep, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("%s empty", id)
		}
	}
}

// TestFig12And14Shapes is the heavyweight end-to-end check; it validates the
// headline claims of both figures.
func TestFig12And14Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment sweep")
	}
	rep, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Rows[len(rep.Rows)-1]
	recSp := cell(t, last[3])
	fafSp := cell(t, last[4])
	ideal := cell(t, last[5])
	if fafSp <= recSp {
		t.Fatalf("Fafnir speedup %v not above RecNMP %v at 32 ranks", fafSp, recSp)
	}
	if ideal < fafSp {
		t.Fatalf("Fafnir %v exceeds ideal %v", fafSp, ideal)
	}
	if fafSp/ideal < 0.9 {
		t.Fatalf("Fafnir %v not tracking ideal %v", fafSp, ideal)
	}

	rep14, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	minSp, maxSp := 1e9, 0.0
	for _, row := range rep14.Rows {
		sp := cell(t, row[5])
		if sp < minSp {
			minSp = sp
		}
		if sp > maxSp {
			maxSp = sp
		}
	}
	if minSp < 1.0 {
		t.Fatalf("Fafnir loses an SpMV workload: min speedup %v", minSp)
	}
	if maxSp < 2 {
		t.Fatalf("max SpMV speedup %v too small", maxSp)
	}
}

func TestAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy ablation sweep")
	}
	// Occupancy bound holds at every capacity.
	occ, err := AblOccupancy()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range occ.Rows {
		if row[3] != "yes" {
			t.Fatalf("occupancy bound violated: %v", row)
		}
	}
	// Closed page hurts TensorDIMM's memory time and kills all row hits.
	page, err := AblPagePolicy()
	if err != nil {
		t.Fatal(err)
	}
	var openTD, closedTD float64
	for _, row := range page.Rows {
		if row[0] == "TensorDIMM" && row[1] == "open" {
			openTD = cell(t, row[2])
		}
		if row[0] == "TensorDIMM" && row[1] == "closed" {
			closedTD = cell(t, row[2])
			if cell(t, row[3]) != 0 {
				t.Fatalf("closed page recorded row hits: %v", row)
			}
		}
	}
	if closedTD <= openTD {
		t.Fatalf("closed page not slower for TensorDIMM: %v vs %v", closedTD, openTD)
	}
	// Interactive beats batch for one query, loses for many.
	inter, err := AblInteractive()
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, inter.Rows[0][3])
	last := cell(t, inter.Rows[len(inter.Rows)-1][3])
	if first >= 1 {
		t.Fatalf("interactive not faster for one query: ratio %v", first)
	}
	if last <= 1 {
		t.Fatalf("batching not faster for many queries: ratio %v", last)
	}
	// HBM cuts the gather time at equal batch size.
	hbm, err := AblHBM()
	if err != nil {
		t.Fatal(err)
	}
	if ddr, hb := cell(t, hbm.Rows[1][2]), cell(t, hbm.Rows[3][2]); hb >= ddr {
		t.Fatalf("HBM memory time %v not below DDR4 %v", hb, ddr)
	}
}

func TestMarkdownRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "b"}}
	r.AddRow("1", "2")
	r.AddNote("n")
	md := r.Markdown()
	for _, want := range []string{"## x: t", "| a | b |", "| 1 | 2 |", "*n*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestAllExperimentsRun executes every registered experiment once end to
// end (concurrently, via RunAll): no runner may fail or produce an empty
// table, and the returned order must be ID order regardless of scheduling.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	reports, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	ids := IDs()
	if len(reports) != len(ids) {
		t.Fatalf("RunAll returned %d of %d reports", len(reports), len(ids))
	}
	for i, rep := range reports {
		if rep.ID != ids[i] {
			t.Fatalf("reports not in ID order: position %d is %s, want %s", i, rep.ID, ids[i])
		}
	}
	// Concurrent scheduling must not leak into report contents: fully
	// deterministic experiments re-run serially must match the sweep.
	for _, id := range []string{"fig9", "table1", "table5"} {
		serial, err := Run(id)
		if err != nil {
			t.Fatal(err)
		}
		i := sort.SearchStrings(ids, id)
		if !reflect.DeepEqual(reports[i], serial) {
			t.Fatalf("%s: RunAll report differs from a serial run", id)
		}
	}
	for _, rep := range reports {
		if len(rep.Rows) == 0 {
			t.Fatalf("%s produced no rows", rep.ID)
		}
		for _, row := range rep.Rows {
			if len(row) != len(rep.Header) {
				t.Fatalf("%s row width %d != header %d", rep.ID, len(row), len(rep.Header))
			}
		}
		if rep.String() == "" || rep.Markdown() == "" {
			t.Fatalf("%s renders empty", rep.ID)
		}
	}
}
