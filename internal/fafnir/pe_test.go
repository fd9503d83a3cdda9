package fafnir

import (
	"math/rand"
	"slices"
	"testing"

	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

func entry(val float32, indices []header.Index, queries ...header.IndexSet) Entry {
	return Entry{
		Value:  tensor.Vector{val},
		Header: header.Header{Indices: header.NewIndexSet(indices...), Queries: queries},
	}
}

func TestProcessPEReduceBothDirectionsDedup(t *testing.T) {
	a := entry(1, []header.Index{1}, header.NewIndexSet(2))
	b := entry(2, []header.Index{2}, header.NewIndexSet(1))
	out, st, err := ProcessPE(tensor.OpSum, []Entry{a}, []Entry{b})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("outputs = %d, want 1 (duplicate from both directions merged)", len(out))
	}
	if out[0].Value[0] != 3 {
		t.Fatalf("value = %v, want 3", out[0].Value[0])
	}
	if !out[0].Header.Indices.Equal(header.NewIndexSet(1, 2)) {
		t.Fatalf("indices %v", out[0].Header.Indices)
	}
	if !out[0].Header.Complete() {
		t.Fatal("reduction to completion not marked complete")
	}
	if st.Reduces != 2 || st.MergedDuplicates != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestProcessPEForwardNoMatch(t *testing.T) {
	a := entry(1, []header.Index{1}, header.NewIndexSet(3))
	b := entry(2, []header.Index{2}, header.NewIndexSet(4))
	out, st, err := ProcessPE(tensor.OpSum, []Entry{a}, []Entry{b})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("outputs = %d, want 2", len(out))
	}
	if st.Reduces != 0 || st.Forwards != 2 {
		t.Fatalf("stats %+v", st)
	}
	for _, e := range out {
		if e.Header.Complete() {
			t.Fatalf("forwarded entry marked complete: %v", e)
		}
	}
}

func TestProcessPEOneSidedInput(t *testing.T) {
	// "in some cases ... only one of the inputs exists, which automatically
	// leads to a forward action."
	a := entry(5, []header.Index{4}, header.NewIndexSet(7))
	out, st, err := ProcessPE(tensor.OpSum, []Entry{a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Value[0] != 5 {
		t.Fatalf("out %v", out)
	}
	if st.Reduces != 0 || st.Forwards != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestProcessPEEmptyInputs(t *testing.T) {
	out, st, err := ProcessPE(tensor.OpSum, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || st.Outputs != 0 {
		t.Fatalf("non-empty result from empty inputs: %v", out)
	}
}

func TestProcessPECompleteEntryForwards(t *testing.T) {
	done := Entry{
		Value:  tensor.Vector{9},
		Header: header.Header{Indices: header.NewIndexSet(1, 2), Queries: []header.IndexSet{nil}},
	}
	other := entry(1, []header.Index{5}, header.NewIndexSet(6))
	out, _, err := ProcessPE(tensor.OpSum, []Entry{done}, []Entry{other})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range out {
		if e.Header.Indices.Equal(header.NewIndexSet(1, 2)) && e.Header.Complete() && e.Value[0] == 9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("complete entry did not pass through: %v", out)
	}
}

// TestProcessPEMergePaperExample reproduces the PE(2|3) merge of Fig. 6d:
// the same value (indices {32,83}) is needed by two queries with different
// remaining sets, and the merge unit combines them into one output with
// header [indices:32,83 | queries:{11,77} {26}].
func TestProcessPEMergePaperExample(t *testing.T) {
	a := entry(3, []header.Index{32},
		header.NewIndexSet(83, 11, 77), // from query a
		header.NewIndexSet(83, 26),     // from query b
	)
	b := entry(4, []header.Index{83},
		header.NewIndexSet(32, 11, 77),
		header.NewIndexSet(32, 26),
	)
	out, st, err := ProcessPE(tensor.OpSum, []Entry{a}, []Entry{b})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("outputs = %d, want 1: %v", len(out), out)
	}
	e := out[0]
	if !e.Header.Indices.Equal(header.NewIndexSet(32, 83)) {
		t.Fatalf("indices %v", e.Header.Indices)
	}
	if len(e.Header.Queries) != 2 {
		t.Fatalf("queries %v", e.Header.Queries)
	}
	if !hasQuery(e.Header, header.NewIndexSet(11, 77)) || !hasQuery(e.Header, header.NewIndexSet(26)) {
		t.Fatalf("merged queries wrong: %v", e.Header.Queries)
	}
	if e.Value[0] != 7 {
		t.Fatalf("value %v", e.Value[0])
	}
	// Four reduce actions fired (two per direction); three raw outputs were
	// folded away by the merge unit.
	if st.Reduces != 4 || st.MergedDuplicates != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestProcessPEMaximalMatch(t *testing.T) {
	// a's query set covers both b1 {2} and b2 {2,3}; the PE must pick the
	// maximal partner b2 (the complete partial reduction of that subtree)
	// and complete the query, not strand it on the sub-chain b1.
	a := entry(1, []header.Index{1}, header.NewIndexSet(2, 3))
	b1 := entry(10, []header.Index{2}, header.NewIndexSet(9))
	b2 := entry(20, []header.Index{2, 3}, header.NewIndexSet(1))
	out, _, err := ProcessPE(tensor.OpSum, []Entry{a}, []Entry{b1, b2})
	if err != nil {
		t.Fatal(err)
	}
	var complete *Entry
	for i := range out {
		if out[i].Header.Indices.Equal(header.NewIndexSet(1, 2, 3)) {
			complete = &out[i]
		}
	}
	if complete == nil {
		t.Fatalf("no complete output: %v", out)
	}
	if complete.Value[0] != 21 {
		t.Fatalf("value = %v, want 21 (a+b2)", complete.Value[0])
	}
	if !complete.Header.Complete() {
		t.Fatal("maximal reduction not complete")
	}
	// b1 must forward for its own query.
	var b1Out bool
	for _, e := range out {
		if e.Header.Indices.Equal(header.NewIndexSet(2)) && hasQuery(e.Header, header.NewIndexSet(9)) {
			b1Out = true
		}
	}
	if !b1Out {
		t.Fatalf("b1 not forwarded: %v", out)
	}
}

func TestProcessPEPartialReduce(t *testing.T) {
	// Query {1,2,7}: 1 and 2 meet here, 7 lives higher in the tree.
	a := entry(1, []header.Index{1}, header.NewIndexSet(2, 7))
	b := entry(2, []header.Index{2}, header.NewIndexSet(1, 7))
	out, _, err := ProcessPE(tensor.OpSum, []Entry{a}, []Entry{b})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("outputs %v", out)
	}
	e := out[0]
	if !e.Header.Indices.Equal(header.NewIndexSet(1, 2)) {
		t.Fatalf("indices %v", e.Header.Indices)
	}
	if len(e.Header.Queries) != 1 || !e.Header.Queries[0].Equal(header.NewIndexSet(7)) {
		t.Fatalf("queries %v", e.Header.Queries)
	}
	if e.Header.Complete() {
		t.Fatal("partial reduction marked complete")
	}
}

// TestProcessPEUnmirroredReduce: a reduce of input B is left out only when
// input A's pass already emitted it. Here neither A-side entry made that
// output — one does not owe the query, the other's partner for it does not
// exist — so B's reduces must all come out.
func TestProcessPEUnmirroredReduce(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b []Entry
		want []Entry // outputs B's reduces make, by Indices and value
	}{
		{
			name: "partner does not owe the query",
			a:    []Entry{entry(1, []header.Index{1}, header.NewIndexSet(5))},
			b:    []Entry{entry(2, []header.Index{2}, header.NewIndexSet(1))},
			want: []Entry{entry(3, []header.Index{1, 2})},
		},
		{
			name: "partner's own partner is missing",
			a:    []Entry{entry(1, []header.Index{1}, header.NewIndexSet(2, 3))},
			b: []Entry{
				entry(2, []header.Index{2}, header.NewIndexSet(1, 3)),
				entry(3, []header.Index{3}, header.NewIndexSet(1, 2)),
			},
			want: []Entry{entry(3, []header.Index{1, 2}), entry(4, []header.Index{1, 3})},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, st, err := ProcessPE(tensor.OpSum, tc.a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if st.Reduces != len(tc.want) {
				t.Fatalf("stats %+v, want %d reduces", st, len(tc.want))
			}
			for _, w := range tc.want {
				if !slices.ContainsFunc(out, func(e Entry) bool {
					return e.Header.Indices.Equal(w.Header.Indices) && e.Value[0] == w.Value[0]
				}) {
					t.Fatalf("no output %v of value %v: %v", w.Header.Indices, w.Value[0], out)
				}
			}
		})
	}
}

func TestProcessPEDimensionError(t *testing.T) {
	a := Entry{Value: tensor.Vector{1, 2}, Header: header.Header{Indices: header.NewIndexSet(1), Queries: []header.IndexSet{header.NewIndexSet(2)}}}
	b := Entry{Value: tensor.Vector{1}, Header: header.Header{Indices: header.NewIndexSet(2), Queries: []header.IndexSet{header.NewIndexSet(1)}}}
	if _, _, err := ProcessPE(tensor.OpSum, []Entry{a}, []Entry{b}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSelfMergeSameRankPair(t *testing.T) {
	// Two indices of one query on the same input stream must combine.
	e1 := entry(1, []header.Index{1}, header.NewIndexSet(2, 7))
	e2 := entry(2, []header.Index{2}, header.NewIndexSet(1, 7))
	out, st, err := SelfMerge(tensor.OpSum, []Entry{e1, e2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("outputs %v", out)
	}
	if !out[0].Header.Indices.Equal(header.NewIndexSet(1, 2)) || out[0].Value[0] != 3 {
		t.Fatalf("merged entry wrong: %v val=%v", out[0].Header, out[0].Value)
	}
	if st.Reduces == 0 {
		t.Fatal("no reduces counted")
	}
}

func TestSelfMergeFig6Table4(t *testing.T) {
	// Fig. 6: indices 44 and 94 both live in table 4. Query c needs both;
	// query a needs only 44. After the stream merge the input must hold the
	// combined (44,94) chain for c and 44 alone for a.
	e44 := entry(4, []header.Index{44},
		header.NewIndexSet(11, 32, 83, 77), // query a remaining
		header.NewIndexSet(50, 11, 94, 26), // query c remaining
	)
	e94 := entry(9, []header.Index{94},
		header.NewIndexSet(50, 44, 11, 26), // query c remaining
	)
	out, _, err := SelfMerge(tensor.OpSum, []Entry{e44, e94})
	if err != nil {
		t.Fatal(err)
	}
	var combined, alone bool
	for _, e := range out {
		if e.Header.Indices.Equal(header.NewIndexSet(44, 94)) {
			combined = true
			if e.Value[0] != 13 {
				t.Fatalf("combined value %v", e.Value[0])
			}
			if !hasQuery(e.Header, header.NewIndexSet(50, 11, 26)) {
				t.Fatalf("combined queries %v", e.Header.Queries)
			}
		}
		if e.Header.Indices.Equal(header.NewIndexSet(44)) && hasQuery(e.Header, header.NewIndexSet(11, 32, 83, 77)) {
			alone = true
		}
	}
	if !combined {
		t.Fatalf("44+94 not merged for query c: %v", out)
	}
	if !alone {
		t.Fatalf("44 not kept alone for query a: %v", out)
	}
}

func TestSelfMergeNoOpWhenDisjoint(t *testing.T) {
	e1 := entry(1, []header.Index{1}, header.NewIndexSet(5))
	e2 := entry(2, []header.Index{2}, header.NewIndexSet(6))
	out, st, err := SelfMerge(tensor.OpSum, []Entry{e1, e2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || st.Reduces != 0 {
		t.Fatalf("unexpected merge: %v %+v", out, st)
	}
}

func TestSelfMergeThreeFragments(t *testing.T) {
	// Query {1,2,3,9} with 1, 2, 3 all on one stream.
	q := header.NewIndexSet(1, 2, 3, 9)
	mk := func(v float32, own header.Index) Entry {
		return entry(v, []header.Index{own}, q.Minus(header.NewIndexSet(own)))
	}
	out, _, err := SelfMerge(tensor.OpSum, []Entry{mk(1, 1), mk(2, 2), mk(3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("outputs %v", out)
	}
	if !out[0].Header.Indices.Equal(header.NewIndexSet(1, 2, 3)) || out[0].Value[0] != 6 {
		t.Fatalf("three-way merge wrong: %v %v", out[0].Header, out[0].Value)
	}
	if len(out[0].Header.Queries) != 1 || !out[0].Header.Queries[0].Equal(header.NewIndexSet(9)) {
		t.Fatalf("remaining %v", out[0].Header.Queries)
	}
}

func TestPEStatsAdd(t *testing.T) {
	a := PEStats{InA: 1, InB: 2, Compares: 3, Reduces: 4, Forwards: 5, MergedDuplicates: 6, Outputs: 7}
	b := a
	a.Add(b)
	if a.InA != 2 || a.Outputs != 14 || a.Compares != 6 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestEntryCloneAndString(t *testing.T) {
	e := entry(1, []header.Index{3}, header.NewIndexSet(4))
	c := e.Clone()
	c.Value[0] = 9
	c.Header.Indices[0] = 9
	if e.Value[0] != 1 || e.Header.Indices[0] != 3 {
		t.Fatal("Clone aliased")
	}
	if e.String() == "" {
		t.Fatal("empty String")
	}
}

// Property: PE outputs always have unique indices keys, and no query set
// ever intersects its own entry's indices.
func TestQuickProcessPEInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		mkSide := func(base header.Index) []Entry {
			n := rng.Intn(4)
			var side []Entry
			for i := 0; i < n; i++ {
				own := base + header.Index(rng.Intn(4))
				var qs []header.IndexSet
				for k := 0; k < 1+rng.Intn(2); k++ {
					var raw []header.Index
					for m := 0; m < rng.Intn(5); m++ {
						raw = append(raw, header.Index(rng.Intn(16)))
					}
					qs = append(qs, header.NewIndexSet(raw...).Minus(header.NewIndexSet(own)))
				}
				side = append(side, entry(float32(rng.Intn(5)), []header.Index{own}, qs...))
			}
			merged, _, err := SelfMerge(tensor.OpSum, side)
			if err != nil {
				t.Fatal(err)
			}
			return merged
		}
		out, st, err := ProcessPE(tensor.OpSum, mkSide(0), mkSide(8))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		seen := map[string]bool{}
		for _, e := range out {
			key := e.Header.Indices.String()
			if seen[key] {
				t.Fatalf("trial %d: duplicate indices key in outputs", trial)
			}
			seen[key] = true
			for _, q := range e.Header.Queries {
				if q.Intersects(e.Header.Indices) {
					t.Fatalf("trial %d: query set %v intersects indices %v", trial, q, e.Header.Indices)
				}
			}
		}
		if st.Outputs != len(out) {
			t.Fatalf("trial %d: stats.Outputs %d != %d", trial, st.Outputs, len(out))
		}
	}
}
