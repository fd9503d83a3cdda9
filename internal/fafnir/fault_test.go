package fafnir

import (
	"errors"
	"testing"

	"fafnir/internal/batch"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/memmap"
	"fafnir/internal/tensor"
)

// faultFixture builds the standard degraded-mode test rig: the paper's DDR4
// geometry, a small table set, and a deterministic batch.
type faultFixture struct {
	mcfg   dram.Config
	layout *memmap.Layout
	store  *embedding.Store
	eng    *Engine
	batch  embedding.Batch
}

func newFaultFixture(t *testing.T, op tensor.ReduceOp) *faultFixture {
	t.Helper()
	mcfg := dram.DDR4()
	layout := memmap.Uniform(mcfg, 512, 4, 256)
	store := embedding.MustStore(layout.TotalRows(), 16, 7)
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: 16, QuerySize: 4, Rows: layout.TotalRows(), Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Default())
	if err != nil {
		t.Fatal(err)
	}
	return &faultFixture{
		mcfg: mcfg, layout: layout, store: store, eng: eng, batch: gen.Batch(op),
	}
}

func (f *faultFixture) run(t *testing.T, plan fault.Plan) (*TimedResult, error) {
	t.Helper()
	var inj *fault.Injector
	if !plan.Empty() {
		var err error
		inj, err = fault.NewInjector(plan, f.mcfg.TotalRanks())
		if err != nil {
			t.Fatal(err)
		}
	}
	return f.eng.TimedLookup(f.store, f.layout, withFaults(dram.MustSystem(f.mcfg), inj), f.batch, true)
}

// withFaults attaches inj (nil for none) to mem, where TimedLookup reads it.
func withFaults(mem *dram.System, inj *fault.Injector) *dram.System {
	mem.AttachFaults(inj)
	return mem
}

// Degraded-mode correctness (the PR's acceptance scenario): one failed rank,
// reads remapped to the replica placement, and the outputs must stay
// bit-identical to the fault-free run for every pooling operation — only the
// cycle counts may move.
func TestDegradedLookupBitIdenticalAcrossOps(t *testing.T) {
	ops := []struct {
		name string
		op   tensor.ReduceOp
	}{
		{"sum", tensor.OpSum},
		{"min", tensor.OpMin},
		{"max", tensor.OpMax},
		{"mean", tensor.OpMean},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			f := newFaultFixture(t, tc.op)
			clean, err := f.run(t, fault.Plan{})
			if err != nil {
				t.Fatal(err)
			}
			if clean.Degraded != nil {
				t.Fatal("fault-free run carries a DegradedReport")
			}

			// Fail the rank holding the first query's first index, from
			// cycle zero.
			dark := f.layout.Rank(f.batch.Queries[0].Indices[0])
			res, err := f.run(t, fault.Plan{RankFailures: []fault.RankFailure{{Rank: dark, At: 0}}})
			if err != nil {
				t.Fatal(err)
			}
			for qi := range clean.Outputs {
				if !res.Outputs[qi].Equal(clean.Outputs[qi]) {
					t.Fatalf("query %d output diverged under rank failure", qi)
				}
			}
			d := res.Degraded
			if d == nil {
				t.Fatal("faulted run reports no degradation")
			}
			if d.RemappedReads < 1 || d.RemappedQueries < 1 {
				t.Fatalf("expected remapped work, got %+v", d)
			}
			if len(d.FailedRanks) != 1 || d.FailedRanks[0] != dark {
				t.Fatalf("FailedRanks = %v, want [%d]", d.FailedRanks, dark)
			}
		})
	}
}

// The empty plan must be a true no-op: identical cycles, outputs, and DRAM
// traffic to the unfaulted entry point.
func TestEmptyFaultPlanZeroOverhead(t *testing.T) {
	f := newFaultFixture(t, tensor.OpSum)
	base, err := f.eng.TimedLookup(f.store, f.layout, dram.MustSystem(f.mcfg), f.batch, true)
	if err != nil {
		t.Fatal(err)
	}
	viaFault, err := f.run(t, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if viaFault.TotalCycles != base.TotalCycles ||
		viaFault.MemCycles != base.MemCycles ||
		viaFault.ComputeCycles != base.ComputeCycles ||
		viaFault.BytesRead != base.BytesRead ||
		viaFault.MemoryReads != base.MemoryReads {
		t.Fatalf("empty plan perturbed timing: %+v vs %+v", viaFault, base)
	}
	for qi := range base.Outputs {
		if !viaFault.Outputs[qi].Equal(base.Outputs[qi]) {
			t.Fatalf("empty plan perturbed output %d", qi)
		}
	}
	if viaFault.Degraded != nil {
		t.Fatal("empty plan produced a DegradedReport")
	}
}

// ECC-flagged reads retry with backoff: outputs unchanged, retries counted,
// and the retry cost visible in the total.
func TestTransientReadFaultsRetryAndRecover(t *testing.T) {
	f := newFaultFixture(t, tensor.OpSum)
	clean, err := f.run(t, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.run(t, fault.Plan{Seed: 3, ReadFaultProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Degraded
	if d == nil || d.Retries < 1 {
		t.Fatalf("expected retries at 20%% fault rate over %d reads, got %+v", res.MemoryReads, d)
	}
	if d.RetryCycles == 0 {
		t.Fatal("retries charged no cycles")
	}
	if res.TotalCycles <= clean.TotalCycles {
		t.Fatalf("retry cost invisible: %d <= %d", res.TotalCycles, clean.TotalCycles)
	}
	for qi := range clean.Outputs {
		if !res.Outputs[qi].Equal(clean.Outputs[qi]) {
			t.Fatalf("query %d output diverged under transient faults", qi)
		}
	}
}

// When every retry attempt faults, the engine reports ErrRetriesExhausted
// instead of returning corrupt data (or panicking).
func TestRetriesExhausted(t *testing.T) {
	f := newFaultFixture(t, tensor.OpSum)
	_, err := f.run(t, fault.Plan{
		Seed:                 1,
		ReadFaultProb:        0.999,
		MaxConsecutiveFaults: 100,
		MaxRetries:           2,
	})
	if !errors.Is(err, fault.ErrRetriesExhausted) {
		t.Fatalf("want ErrRetriesExhausted, got %v", err)
	}
}

// When both the primary and the replica rank are dark, the lookup fails with
// a structured ErrRankFailed.
func TestPrimaryAndReplicaDark(t *testing.T) {
	f := newFaultFixture(t, tensor.OpSum)
	idx := f.batch.Queries[0].Indices[0]
	primary := f.layout.Rank(idx)
	replica, _, err := f.layout.Replica(idx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.run(t, fault.Plan{RankFailures: []fault.RankFailure{
		{Rank: primary, At: 0},
		{Rank: replica, At: 0},
	}})
	if !errors.Is(err, fault.ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", err)
	}
}

// A placement without replicas cannot degrade: a dark rank is a structured
// failure, not a panic.
func TestRankFailureWithoutReplicasErrors(t *testing.T) {
	f := newFaultFixture(t, tensor.OpSum)
	inj, err := fault.NewInjector(fault.Plan{
		RankFailures: []fault.RankFailure{{Rank: f.layout.Rank(f.batch.Queries[0].Indices[0]), At: 0}},
	}, f.mcfg.TotalRanks())
	if err != nil {
		t.Fatal(err)
	}
	bare := barePlacement{l: f.layout}
	_, err = f.eng.TimedLookup(f.store, bare, withFaults(dram.MustSystem(f.mcfg), inj), f.batch, true)
	if !errors.Is(err, fault.ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", err)
	}
}

// barePlacement strips the Replica method off a layout (a named field, not
// an embedding, so the method is not promoted).
type barePlacement struct{ l *memmap.Layout }

func (b barePlacement) Rank(idx header.Index) int       { return b.l.Rank(idx) }
func (b barePlacement) Addr(idx header.Index) dram.Addr { return b.l.Addr(idx) }
func (b barePlacement) VectorBytes() int                { return b.l.VectorBytes() }

// A stalled PE charges exactly its extra latency on the critical path (the
// root is on every path), without touching values.
func TestPEStallChargesLatency(t *testing.T) {
	f := newFaultFixture(t, tensor.OpSum)
	clean, err := f.run(t, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 500
	res, err := f.run(t, fault.Plan{PEStalls: []fault.PEStall{{PE: f.eng.Tree().Root().ID, Extra: extra}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TotalCycles - clean.TotalCycles; got != extra {
		t.Fatalf("root stall of %d cycles moved total by %d", extra, got)
	}
	for qi := range clean.Outputs {
		if !res.Outputs[qi].Equal(clean.Outputs[qi]) {
			t.Fatalf("query %d output changed under a pure timing fault", qi)
		}
	}
}

// The always-on conservation checker flags corrupted root headers as
// structured invariant violations.
func TestRootConservationChecker(t *testing.T) {
	f := newFaultFixture(t, tensor.OpSum)
	plan := batch.Build(f.batch, true)

	// Root entries over the plan's dense rows: a set of the first n rows, and
	// a class it owes nothing more.
	k := plan.Rows.Words()
	first := func(n int) header.Bitset {
		b := make(header.Bitset, k)
		for id := 0; id < n; id++ {
			b.Set(id)
		}
		return b
	}
	// One query class, of the three lowest rows.
	classes := queryClasses{rows: []header.Bitset{first(3)}, one: []uint64{1}, k: 1}
	noQueries := []denseEntry{{indices: first(1)}}
	if err := checkRootConservation(plan, &classes, noQueries); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("query-less root output accepted: %v", err)
	}

	// No query of the batch is exactly its three lowest rows.
	phantom := []denseEntry{{indices: first(3), queries: classes.single(0)}}
	if err := checkRootConservation(plan, &classes, phantom); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("phantom complete output accepted: %v", err)
	}
}
