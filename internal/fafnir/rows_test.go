package fafnir

import (
	"slices"
	"testing"

	"fafnir/internal/batch"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// TestRowSinkHandsEachRowRead: a timed lookup of three hardware batches
// hands the sink, once per hardware batch and in program order, exactly that
// batch's unique rows in ascending index order, each equal to the store's
// row, at every Parallelism; outputs and cycles match an unattached run, and
// a detached engine hands nothing.
func TestRowSinkHandsEachRowRead(t *testing.T) {
	for _, par := range []int{1, 2} {
		cfg := Default()
		cfg.VectorDim = 32
		cfg.Parallelism = par
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
			NumQueries: 3 * cfg.BatchCapacity, QuerySize: 16, Rows: 1 << 16, Dist: embedding.Zipf, ZipfS: 1.3, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		b := gen.Batch(tensor.OpSum)
		store := embedding.MustStore(1<<16, 32, 3)
		pl := modBenchPlacement{ranks: 32, bytes: 128}

		var calls [][]header.Index
		e.AttachRowSink(func(rows []StagedRow) {
			var idx []header.Index
			for _, r := range rows {
				if !r.Row.Equal(store.MustVector(r.Index)) {
					t.Fatalf("Parallelism %d: row %d handed out with another row's values", par, r.Index)
				}
				idx = append(idx, r.Index)
			}
			calls = append(calls, idx)
		})
		got, err := e.TimedLookup(store, pl, dram.MustSystem(dram.DDR4()), b, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) != 3 {
			t.Fatalf("Parallelism %d: sink called %d times, want once per hardware batch (3)", par, len(calls))
		}
		for k, idx := range calls {
			want := batch.Compile(e.hwBatch(b, k*cfg.BatchCapacity), true).Rows
			if !slices.Equal(idx, []header.Index(want)) {
				t.Fatalf("Parallelism %d, hardware batch %d: handed %d rows, want its %d unique rows in order", par, k, len(idx), len(want))
			}
		}

		e.AttachRowSink(nil)
		calls = nil
		plain, err := e.TimedLookup(store, pl, dram.MustSystem(dram.DDR4()), b, true)
		if err != nil {
			t.Fatal(err)
		}
		if calls != nil {
			t.Fatalf("Parallelism %d: a detached engine handed out rows", par)
		}
		if plain.TotalCycles != got.TotalCycles || VerifyAgainstGolden(got.Outputs, plain.Outputs) >= 0 {
			t.Fatalf("Parallelism %d: the attached sink perturbed the lookup", par)
		}
	}
}

// TestRowSinkWithholdsMislabelledRows: a staged buffer goes out only under
// the index it was filled for. One labelled with another row's index is
// withheld; every other row still goes out.
func TestRowSinkWithholdsMislabelledRows(t *testing.T) {
	e, plan, store, pl := allocTreeSetup(t, 1)
	sc := e.getTreeScratch()
	defer e.putTreeScratch(sc)
	if _, err := e.leafInputs(sc, store, pl, plan, nil); err != nil {
		t.Fatal(err)
	}
	var handed []StagedRow
	e.AttachRowSink(func(rows []StagedRow) { handed = append(handed, rows...) })
	p := &funcPass{plan: plan, sc: sc}
	e.handRows(p)
	if len(handed) != len(plan.Rows) {
		t.Fatalf("handed %d rows, want all %d", len(handed), len(plan.Rows))
	}
	sc.staged[0].Index = plan.Rows[1]
	handed = nil
	e.handRows(p)
	if len(handed) != len(plan.Rows)-1 || slices.ContainsFunc(handed, func(r StagedRow) bool { return r.Index == plan.Rows[1] && &r.Row[0] == &sc.staged[0].Row[0] }) {
		t.Fatalf("a buffer staged for row %d went out under row %d's index", plan.Rows[0], plan.Rows[1])
	}
}
