package fafnir

import (
	"errors"
	"strings"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/fault"
	"fafnir/internal/tensor"
)

// corruptOneOutput arms GoldenCheckHook to change one element of the first
// resolved output it is shown, and disarms it when the test ends.
func corruptOneOutput(t *testing.T) {
	t.Helper()
	done := false
	GoldenCheckHook = func(_ int, got, _ []tensor.Vector) {
		if !done {
			got[0][0]++
			done = true
		}
	}
	t.Cleanup(func() { GoldenCheckHook = nil })
}

// TestGoldenCheckCatchesCorruptOutput corrupts one element of one resolved
// output and requires the golden check's error from every pass mode: the
// functional and timed lookups inline (Parallelism 1) and with passes computed
// ahead of the consumer (Parallelism 2), and a faulted run, which is inline at
// any Parallelism.
func TestGoldenCheckCatchesCorruptOutput(t *testing.T) {
	f := newFaultFixture(t, tensor.OpSum)
	plan, err := fault.Parse("rank=0@0;ecc=0.02;seed=5")
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(e *Engine) error {
		_, err := e.Lookup(f.store, f.layout, f.batch)
		return err
	}
	timed := func(e *Engine) error {
		_, err := e.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), f.batch, true)
		return err
	}
	faulted := func(e *Engine) error {
		inj, err := fault.NewInjector(plan, f.mcfg.TotalRanks())
		if err != nil {
			return err
		}
		_, err = e.TimedLookupFaulted(f.store, f.layout, dram.MustSystem(f.mcfg), f.batch, true, inj)
		return err
	}
	for _, tc := range []struct {
		name string
		par  int
		run  func(*Engine) error
	}{
		{"functional/P1", 1, lookup},
		{"functional/P2", 2, lookup},
		{"timed/P1", 1, timed},
		{"timed/P2", 2, timed},
		{"faulted", 2, faulted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			cfg.BatchCapacity = 4 // four hardware batches, so Parallelism 2 computes passes ahead
			cfg.Parallelism = tc.par
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(e); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			corruptOneOutput(t)
			err = tc.run(e)
			if !errors.Is(err, fault.ErrInvariantViolated) || !strings.Contains(err.Error(), "mismatches the golden reference") {
				t.Fatalf("a corrupted output got past the golden check: err = %v", err)
			}
		})
	}
}

// TestFoldUsesOnlyMatchingStagedRows: a staged buffer serves the golden fold
// only for the index VectorInto filled it for. Poisoned under their own labels
// the buffers show in the fold, so it does read them; labelled with other
// rows' indices they are never used, and the fold equals Golden.
func TestFoldUsesOnlyMatchingStagedRows(t *testing.T) {
	e, plan, store, pl := allocTreeSetup(t, 1)
	sc := e.getTreeScratch()
	defer e.putTreeScratch(sc)
	if _, err := e.leafInputs(sc, store, pl, plan, nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range sc.staged {
		for i := range s.v {
			s.v[i] = 1000
		}
	}
	golden := plan.Batch().MustGolden(store)
	got, err := foldGolden(sc, store, plan)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyAgainstGolden(got, golden, 0) < 0 {
		t.Fatal("the fold ignored the staged rows")
	}
	for r := range sc.staged {
		sc.staged[r].idx = plan.Rows[(r+1)%len(plan.Rows)]
	}
	if got, err = foldGolden(sc, store, plan); err != nil {
		t.Fatal(err)
	}
	if i := VerifyAgainstGolden(got, golden, 0); i >= 0 {
		t.Fatalf("query %d folded a buffer staged for another index", i)
	}
}
