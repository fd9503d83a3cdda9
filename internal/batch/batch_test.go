package batch

import (
	"math/rand"
	"testing"

	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// fig6Batch reproduces the batch of Fig. 6: four queries (a, b, c, d) over
// eight tables, with indices written as (row digit)(table digit), e.g. 50 is
// row 5 of table 0.
func fig6Batch() embedding.Batch {
	return embedding.Batch{
		Queries: []embedding.Query{
			{Indices: header.NewIndexSet(11, 44, 32, 83, 77)}, // a
			{Indices: header.NewIndexSet(50, 32, 83, 26)},     // b
			{Indices: header.NewIndexSet(50, 44, 11, 94, 26)}, // c
			{Indices: header.NewIndexSet(83, 77)},             // d
		},
		Op: tensor.OpSum,
	}
}

func TestBuildDedupFig6(t *testing.T) {
	// The paper: "instead of a total of 14 memory accesses, we access seven
	// unique ones: 50, 11, 32, 83, 94, 26, 77" — plus 44, which the text
	// omits but Fig. 6b lists. Counting the example queries gives 16
	// accesses over 8 unique indices.
	p := Build(fig6Batch(), true)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.NumAccesses(); got != 8 {
		t.Fatalf("unique accesses = %d, want 8", got)
	}
	if got := p.TotalAccesses(); got != 16 {
		t.Fatalf("total accesses = %d, want 16", got)
	}
	if p.Savings() != 0.5 {
		t.Fatalf("savings = %v", p.Savings())
	}
}

func TestBuildDedupHeadersFig6(t *testing.T) {
	// Check index 11's access against the worked example: queries a and c
	// use it, so its header lists a\{11} = {44,32,83,77} and
	// c\{11} = {50,44,94,26}.
	p := Build(fig6Batch(), true)
	var acc *Access
	for i := range p.Accesses {
		if p.Accesses[i].Index == 11 {
			acc = &p.Accesses[i]
		}
	}
	if acc == nil {
		t.Fatal("no access for index 11")
	}
	if len(acc.Remaining) != 2 {
		t.Fatalf("index 11 remaining sets = %v", acc.Remaining)
	}
	wantA := header.NewIndexSet(44, 32, 83, 77)
	wantC := header.NewIndexSet(50, 44, 94, 26)
	if !(acc.Remaining[0].Equal(wantA) || acc.Remaining[1].Equal(wantA)) {
		t.Fatalf("missing remaining set for query a: %v", acc.Remaining)
	}
	if !(acc.Remaining[0].Equal(wantC) || acc.Remaining[1].Equal(wantC)) {
		t.Fatalf("missing remaining set for query c: %v", acc.Remaining)
	}
	h := acc.LeafHeader()
	if !h.Indices.Equal(header.NewIndexSet(11)) {
		t.Fatalf("leaf header indices %v", h.Indices)
	}
}

func TestBuildNoDedup(t *testing.T) {
	p := Build(fig6Batch(), false)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.NumAccesses(); got != 16 {
		t.Fatalf("no-dedup accesses = %d, want 16", got)
	}
	if p.Savings() != 0 {
		t.Fatalf("no-dedup savings = %v", p.Savings())
	}
	// Each access carries exactly one remaining set.
	for _, a := range p.Accesses {
		if len(a.Remaining) != 1 {
			t.Fatalf("access %d has %d remaining sets", a.Index, len(a.Remaining))
		}
	}
}

func TestQueriesFor(t *testing.T) {
	b := fig6Batch()
	p := Build(b, true)
	for qi, q := range b.Queries {
		got := p.QueriesFor(q.Indices)
		found := false
		for _, g := range got {
			if g == qi {
				found = true
			}
		}
		if !found {
			t.Fatalf("QueriesFor(%v) = %v, missing %d", q.Indices, got, qi)
		}
	}
	if got := p.QueriesFor(header.NewIndexSet(1, 2, 3)); got != nil {
		t.Fatalf("unknown index set matched queries %v", got)
	}
}

func TestIdenticalQueriesShareOneHeader(t *testing.T) {
	b := embedding.Batch{
		Queries: []embedding.Query{
			{Indices: header.NewIndexSet(1, 2)},
			{Indices: header.NewIndexSet(1, 2)},
		},
		Op: tensor.OpSum,
	}
	p := Build(b, true)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumAccesses() != 2 {
		t.Fatalf("accesses = %d", p.NumAccesses())
	}
	for _, a := range p.Accesses {
		if len(a.Remaining) != 1 {
			t.Fatalf("duplicate queries produced duplicate remaining sets: %v", a.Remaining)
		}
	}
	// Both query positions must resolve from the shared output.
	qs := p.QueriesFor(header.NewIndexSet(1, 2))
	if len(qs) != 2 {
		t.Fatalf("QueriesFor = %v, want both positions", qs)
	}
}

func TestSingleIndexQueryPlan(t *testing.T) {
	b := embedding.Batch{
		Queries: []embedding.Query{{Indices: header.NewIndexSet(5)}},
		Op:      tensor.OpSum,
	}
	p := Build(b, true)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Accesses) != 1 {
		t.Fatalf("accesses = %d", len(p.Accesses))
	}
	h := p.Accesses[0].LeafHeader()
	if !h.Complete() {
		t.Fatalf("single-index leaf header not complete: %v", h)
	}
}

func TestAccessesSorted(t *testing.T) {
	p := Build(fig6Batch(), true)
	for i := 1; i < len(p.Accesses); i++ {
		if p.Accesses[i-1].Index >= p.Accesses[i].Index {
			t.Fatalf("accesses not strictly sorted at %d", i)
		}
	}
}

// Property test: for random batches, dedup plans validate, read each unique
// index exactly once, and never save a negative fraction; no-dedup plans read
// exactly TotalAccesses times.
func TestRandomBatchPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		b := embedding.Batch{Op: tensor.OpSum}
		for i := 0; i < n; i++ {
			q := 1 + rng.Intn(6)
			idx := make([]header.Index, q)
			for j := range idx {
				idx[j] = header.Index(rng.Intn(24))
			}
			b.Queries = append(b.Queries, embedding.Query{Indices: header.NewIndexSet(idx...)})
		}
		pd := Build(b, true)
		if err := pd.Validate(); err != nil {
			t.Fatalf("trial %d dedup: %v", trial, err)
		}
		if pd.NumAccesses() != b.UniqueIndices().Len() {
			t.Fatalf("trial %d: %d accesses for %d unique indices", trial, pd.NumAccesses(), b.UniqueIndices().Len())
		}
		if pd.Savings() < 0 || pd.Savings() >= 1 {
			t.Fatalf("trial %d: savings %v out of range", trial, pd.Savings())
		}
		pn := Build(b, false)
		if err := pn.Validate(); err != nil {
			t.Fatalf("trial %d no-dedup: %v", trial, err)
		}
		if pn.NumAccesses() != b.TotalAccesses() {
			t.Fatalf("trial %d: no-dedup accesses %d != total %d", trial, pn.NumAccesses(), b.TotalAccesses())
		}
	}
}

// The engine runs on Compile's plan: rows numbered ascending with the global
// index, one row bitset per query, per access its row and using queries — and
// no sorted-slice header. Build is the same compile with Remaining derived
// from it.
func TestCompileBitForm(t *testing.T) {
	b := fig6Batch()
	for _, dedup := range []bool{true, false} {
		p, full := Compile(b, dedup), Build(b, dedup)
		if err := p.Validate(); err != nil {
			t.Fatalf("dedup=%v: %v", dedup, err)
		}
		if !header.IndexSet(p.Rows).Equal(b.UniqueIndices()) {
			t.Fatalf("dedup=%v: rows %v, want the batch's unique indices ascending", dedup, p.Rows)
		}
		for qi, q := range b.Queries {
			if got := p.Rows.AppendIndices(nil, p.QueryBits(qi)); !got.Equal(q.Indices) {
				t.Fatalf("dedup=%v: query %d row set spells %v, want %v", dedup, qi, got, q.Indices)
			}
		}
		if len(p.Accesses) != len(full.Accesses) {
			t.Fatalf("dedup=%v: Compile cut %d accesses, Build %d", dedup, len(p.Accesses), len(full.Accesses))
		}
		for i, a := range p.Accesses {
			if a.Remaining != nil {
				t.Fatalf("dedup=%v: Compile materialized access %d's sorted-slice header", dedup, a.Index)
			}
			if p.Rows[a.Row] != a.Index {
				t.Fatalf("dedup=%v: access %d carries row %d = index %d", dedup, a.Index, a.Row, p.Rows[a.Row])
			}
			f := full.Accesses[i]
			if f.Index != a.Index || f.Row != a.Row || len(f.Users) != len(a.Users) || len(f.Remaining) != len(a.Users) {
				t.Fatalf("dedup=%v: access %d: Build %+v diverges from Compile %+v", dedup, i, f, a)
			}
			for _, qi := range a.Users {
				if !b.Queries[qi].Indices.Contains(a.Index) {
					t.Fatalf("dedup=%v: access %d lists query %d, which does not hold it", dedup, a.Index, qi)
				}
			}
		}
	}
}

// Validate must notice a plan whose bit form disagrees with its batch.
func TestValidateCatchesCorruptBitForm(t *testing.T) {
	corrupt := map[string]func(*Plan){
		"query row set":   func(p *Plan) { p.QueryBits(0)[0] ^= 1 },
		"access row":      func(p *Plan) { p.Accesses[0].Row++ },
		"missing user":    func(p *Plan) { a := &p.Accesses[0]; a.Users = a.Users[:len(a.Users)-1] },
		"dropped access":  func(p *Plan) { p.Accesses = p.Accesses[1:] },
		"repeated access": func(p *Plan) { p.Accesses = append(p.Accesses, p.Accesses[0]) },
	}
	for name, mutate := range corrupt {
		p := Compile(fig6Batch(), true)
		mutate(p)
		if p.Validate() == nil {
			t.Errorf("%s: corrupt plan validates", name)
		}
	}
}
