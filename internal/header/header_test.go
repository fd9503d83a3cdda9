package header

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewIndexSetSortsAndDedups(t *testing.T) {
	s := NewIndexSet(5, 1, 3, 5, 1)
	want := IndexSet{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("got %v, want %v", s, want)
	}
}

func TestNewIndexSetEmpty(t *testing.T) {
	s := NewIndexSet()
	if !s.Empty() || s.Len() != 0 {
		t.Fatalf("empty set misbehaves: %v", s)
	}
}

func TestContains(t *testing.T) {
	s := NewIndexSet(2, 4, 6)
	for _, x := range []Index{2, 4, 6} {
		if !s.Contains(x) {
			t.Errorf("Contains(%d) = false", x)
		}
	}
	for _, x := range []Index{0, 3, 7} {
		if s.Contains(x) {
			t.Errorf("Contains(%d) = true", x)
		}
	}
}

func TestContainsAll(t *testing.T) {
	s := NewIndexSet(1, 2, 5, 6)
	cases := []struct {
		sub  IndexSet
		want bool
	}{
		{NewIndexSet(), true},
		{NewIndexSet(1), true},
		{NewIndexSet(1, 6), true},
		{NewIndexSet(1, 2, 5, 6), true},
		{NewIndexSet(3), false},
		{NewIndexSet(1, 3), false},
		{NewIndexSet(1, 2, 5, 6, 7), false},
	}
	for _, c := range cases {
		if got := s.ContainsAll(c.sub); got != c.want {
			t.Errorf("ContainsAll(%v) = %v, want %v", c.sub, got, c.want)
		}
	}
}

func TestUnionMinus(t *testing.T) {
	a := NewIndexSet(1, 3, 5)
	b := NewIndexSet(2, 3, 6)
	if got := a.Union(b); !got.Equal(NewIndexSet(1, 2, 3, 5, 6)) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Minus(b); !got.Equal(NewIndexSet(1, 5)) {
		t.Fatalf("Minus = %v", got)
	}
	if got := a.Minus(a); !got.Empty() {
		t.Fatalf("a.Minus(a) = %v, want empty", got)
	}
	if got := a.Union(nil); !got.Equal(a) {
		t.Fatalf("Union(nil) = %v", got)
	}
	if got := IndexSet(nil).Union(b); !got.Equal(b) {
		t.Fatalf("nil.Union = %v", got)
	}
	if got := IndexSet(nil).Minus(b); !got.Empty() {
		t.Fatalf("nil.Minus = %v", got)
	}
}

func TestIntersects(t *testing.T) {
	a := NewIndexSet(1, 3)
	if !a.Intersects(NewIndexSet(3, 4)) {
		t.Fatal("expected intersection")
	}
	if a.Intersects(NewIndexSet(2, 4)) {
		t.Fatal("unexpected intersection")
	}
	if a.Intersects(nil) {
		t.Fatal("intersection with empty set")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := NewIndexSet(1, 2)
	c := s.Clone()
	c[0] = 9
	if s[0] != 1 {
		t.Fatal("Clone aliased")
	}
	if IndexSet(nil).Clone() != nil {
		t.Fatal("nil clone not nil")
	}
}

func TestIndexSetString(t *testing.T) {
	if got := NewIndexSet(5, 1).String(); got != "{1, 5}" {
		t.Fatalf("String = %q", got)
	}
	if got := NewIndexSet().String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestNewLeaf(t *testing.T) {
	rem := []IndexSet{NewIndexSet(4, 7), NewIndexSet(2)}
	h := NewLeaf(9, rem)
	if !h.Indices.Equal(NewIndexSet(9)) {
		t.Fatalf("indices %v", h.Indices)
	}
	if len(h.Queries) != 2 {
		t.Fatalf("queries %v", h.Queries)
	}
	// Leaf must deep-copy the remaining sets.
	rem[0][0] = 99
	if h.Queries[0][0] == 99 {
		t.Fatal("NewLeaf aliased remaining sets")
	}
}

func TestHeaderComplete(t *testing.T) {
	h := Header{Indices: NewIndexSet(1)}
	if !h.Complete() {
		t.Fatal("empty-queries header not complete")
	}
	h.Queries = []IndexSet{NewIndexSet(2)}
	if h.Complete() {
		t.Fatal("pending header reported complete")
	}
	h.Queries = append(h.Queries, nil)
	if !h.Complete() {
		t.Fatal("header with an emptied query set not complete")
	}
}

func TestNormalizeDedupsQueries(t *testing.T) {
	h := Header{
		Indices: NewIndexSet(1),
		Queries: []IndexSet{NewIndexSet(3, 4), NewIndexSet(3, 4), NewIndexSet(2)},
	}
	h.Normalize()
	if len(h.Queries) != 2 {
		t.Fatalf("normalize kept %d sets: %v", len(h.Queries), h.Queries)
	}
}

// sameHeader reports whether a and b carry the same indices and the same
// queries, in any order.
func sameHeader(a, b Header) bool {
	a.Queries, b.Queries = slices.Clone(a.Queries), slices.Clone(b.Queries)
	return a.Indices.Equal(b.Indices) &&
		slices.EqualFunc(a.Normalize().Queries, b.Normalize().Queries, IndexSet.Equal)
}

// TestHeaderKeyOrderInsensitive: the canonical form of a header does not
// depend on the order its Queries field arrived in.
func TestHeaderKeyOrderInsensitive(t *testing.T) {
	a := Header{Indices: NewIndexSet(1), Queries: []IndexSet{NewIndexSet(2), NewIndexSet(3), NewIndexSet(2, 3)}}
	b := Header{Indices: NewIndexSet(1), Queries: []IndexSet{NewIndexSet(2, 3), NewIndexSet(3), NewIndexSet(2)}}
	if !sameHeader(a, b) {
		t.Fatalf("query order changed the canonical header: %v vs %v", a, b)
	}
}

// TestReducePaperExample reproduces PE (0|1) from Fig. 6: A carries index 50
// with queries {83,94} and {11,94,26}; B carries index 11 with queries
// {32,83,77} and {50,94,26}. The reduce must produce indices {50,11} with
// queries {94,26}.
func TestReducePaperExample(t *testing.T) {
	a := Header{
		Indices: NewIndexSet(50),
		Queries: []IndexSet{NewIndexSet(83, 94), NewIndexSet(11, 94, 26)},
	}
	b := Header{
		Indices: NewIndexSet(11),
		Queries: []IndexSet{NewIndexSet(32, 83, 77), NewIndexSet(50, 94, 26)},
	}
	h, ok := Reduce(a, b)
	if !ok {
		t.Fatal("Reduce reported no matching query")
	}
	if !h.Indices.Equal(NewIndexSet(11, 50)) {
		t.Fatalf("reduced indices %v", h.Indices)
	}
	if len(h.Queries) != 1 || !h.Queries[0].Equal(NewIndexSet(26, 94)) {
		t.Fatalf("reduced queries %v", h.Queries)
	}
}

func TestReduceNoMatch(t *testing.T) {
	a := Header{Indices: NewIndexSet(1), Queries: []IndexSet{NewIndexSet(9)}}
	b := Header{Indices: NewIndexSet(2), Queries: []IndexSet{NewIndexSet(8)}}
	if _, ok := Reduce(a, b); ok {
		t.Fatal("Reduce succeeded with no covering query")
	}
}

func TestReduceToCompletion(t *testing.T) {
	a := Header{Indices: NewIndexSet(1), Queries: []IndexSet{NewIndexSet(2)}}
	b := Header{Indices: NewIndexSet(2), Queries: []IndexSet{NewIndexSet(1)}}
	h, ok := Reduce(a, b)
	if !ok {
		t.Fatal("Reduce failed")
	}
	if !h.Complete() {
		t.Fatalf("expected complete header, got %v", h)
	}
	if !h.Indices.Equal(NewIndexSet(1, 2)) {
		t.Fatalf("indices %v", h.Indices)
	}
}

func TestHeaderCloneDeep(t *testing.T) {
	h := Header{Indices: NewIndexSet(1), Queries: []IndexSet{NewIndexSet(2)}}
	c := h.Clone()
	c.Indices[0] = 5
	c.Queries[0][0] = 5
	if h.Indices[0] != 1 || h.Queries[0][0] != 2 {
		t.Fatal("Clone aliased")
	}
}

func TestHeaderString(t *testing.T) {
	h := Header{Indices: NewIndexSet(50, 11), Queries: []IndexSet{NewIndexSet(94, 26)}}
	got := h.String()
	want := "[indices:{11, 50} | queries:{26, 94}]"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestBits(t *testing.T) {
	// The paper's 10-byte header: q=16 indices at 5 bits each = 80 bits.
	if got := Bits(5, 16); got != 80 {
		t.Fatalf("Bits = %d, want 80", got)
	}
}

// Property: Union is commutative and contains both operands.
func TestQuickUnion(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := fromUint16(xs)
		b := fromUint16(ys)
		u1 := a.Union(b)
		u2 := b.Union(a)
		if !u1.Equal(u2) {
			return false
		}
		return u1.ContainsAll(a) && u1.ContainsAll(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Minus removes exactly the members of the subtrahend.
func TestQuickMinus(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := fromUint16(xs)
		b := fromUint16(ys)
		d := a.Minus(b)
		for _, x := range d {
			if !a.Contains(x) || b.Contains(x) {
				return false
			}
		}
		for _, x := range a {
			if !b.Contains(x) && !d.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// Property: sorted invariant holds after every operation.
func TestQuickSortedInvariant(t *testing.T) {
	sorted := func(s IndexSet) bool {
		for i := 1; i < len(s); i++ {
			if s[i-1] >= s[i] {
				return false
			}
		}
		return true
	}
	f := func(xs, ys []uint16) bool {
		a := fromUint16(xs)
		b := fromUint16(ys)
		return sorted(a) && sorted(b) && sorted(a.Union(b)) && sorted(a.Minus(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Reduce (when it fires) always unions the indices fields and never
// leaves an index of either operand inside a surviving query set.
func TestQuickReduceExcludesOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		a := randomHeader(rng)
		b := randomHeader(rng)
		h, ok := Reduce(a, b)
		if !ok {
			continue
		}
		if !h.Indices.Equal(a.Indices.Union(b.Indices)) {
			t.Fatalf("indices not unioned: %v + %v -> %v", a, b, h)
		}
		for _, q := range h.Queries {
			if q.Intersects(a.Indices) || q.Intersects(b.Indices) {
				t.Fatalf("query set %v still references operand indices (%v, %v)", q, a.Indices, b.Indices)
			}
		}
	}
}

func fromUint16(xs []uint16) IndexSet {
	idx := make([]Index, len(xs))
	for i, x := range xs {
		idx[i] = Index(x % 64) // small domain so overlaps are common
	}
	return NewIndexSet(idx...)
}

func randomHeader(rng *rand.Rand) Header {
	n := 1 + rng.Intn(3)
	idx := make([]Index, n)
	for i := range idx {
		idx[i] = Index(rng.Intn(16))
	}
	h := Header{Indices: NewIndexSet(idx...)}
	for q := 0; q < rng.Intn(3)+1; q++ {
		m := rng.Intn(5)
		qs := make([]Index, m)
		for i := range qs {
			qs[i] = Index(rng.Intn(16))
		}
		// Well-formed headers never list their own indices as still needed.
		h.Queries = append(h.Queries, NewIndexSet(qs...).Minus(h.Indices))
	}
	return h
}
