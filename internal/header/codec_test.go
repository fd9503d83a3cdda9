package header

import (
	"math/rand"
	"testing"
)

func TestCodecValidate(t *testing.T) {
	bad := []Codec{
		{IndexBits: 0, QuerySize: 16, CountBits: 5},
		{IndexBits: 33, QuerySize: 16, CountBits: 5},
		{IndexBits: 5, QuerySize: 0, CountBits: 5},
		{IndexBits: 5, QuerySize: 16, CountBits: 0},
		{IndexBits: 5, QuerySize: 16, CountBits: 17},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad codec %d accepted", i)
		}
	}
	if err := PaperCodec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperCodecBudget(t *testing.T) {
	// 16 x 5 bits = 80 bits = the 10-byte header of Section IV-B.
	if got := PaperCodec().PayloadBits(); got != 80 {
		t.Fatalf("PayloadBits = %d, want 80", got)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	c := PaperCodec()
	h := Header{
		Indices: NewIndexSet(3, 17),
		Queries: []IndexSet{NewIndexSet(1, 2), NewIndexSet(30), nil},
	}
	data, err := c.Pack(h)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameHeader(back, h) {
		t.Fatalf("round trip: %v -> %v", h, back)
	}
}

func TestPackFig6HeaderFits(t *testing.T) {
	// The busiest Fig. 6 leaf header: index 83 with three remaining sets,
	// 11 payload indices total — inside the 16-slot budget. (The Fig. 6
	// indices exceed 5 bits, so use an 8-bit variant of the codec.)
	c := Codec{IndexBits: 8, QuerySize: 16, CountBits: 5}
	h := Header{
		Indices: NewIndexSet(83),
		Queries: []IndexSet{
			NewIndexSet(11, 32, 44, 77),
			NewIndexSet(26, 32, 50),
			NewIndexSet(77),
		},
	}
	n, err := c.EncodedBytes(h)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > 16 {
		t.Fatalf("encoded bytes = %d", n)
	}
	back, err := c.Unpack(mustPack(t, c, h))
	if err != nil {
		t.Fatal(err)
	}
	if !sameHeader(back, h) {
		t.Fatal("fig6 header round trip failed")
	}
}

func mustPack(t *testing.T, c Codec, h Header) []byte {
	t.Helper()
	data, err := c.Pack(h)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPackRejectsOversizedIndex(t *testing.T) {
	c := PaperCodec() // 5-bit indices: max 31
	h := Header{Indices: NewIndexSet(32), Queries: []IndexSet{nil}}
	if _, err := c.Pack(h); err == nil {
		t.Fatal("index 32 accepted at 5 bits")
	}
}

func TestPackRejectsOverBudget(t *testing.T) {
	c := PaperCodec() // budget: 16 payload indices
	idx := make([]Index, 17)
	for i := range idx {
		idx[i] = Index(i)
	}
	h := Header{Indices: NewIndexSet(idx...), Queries: []IndexSet{nil}}
	if _, err := c.Pack(h); err == nil {
		t.Fatal("17 payload indices accepted in a 16-slot budget")
	}
}

func TestUnpackRejectsTruncated(t *testing.T) {
	c := PaperCodec()
	data := mustPack(t, c, Header{Indices: NewIndexSet(1, 2), Queries: []IndexSet{NewIndexSet(3)}})
	if _, err := c.Unpack(data[:1]); err == nil {
		t.Fatal("truncated encoding accepted")
	}
}

// Property: every well-formed header within the budget round-trips exactly.
func TestQuickCodecRoundTrip(t *testing.T) {
	c := PaperCodec()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		h := Header{}
		budget := 16
		nIdx := 1 + rng.Intn(4)
		idx := make([]Index, nIdx)
		for i := range idx {
			idx[i] = Index(rng.Intn(32))
		}
		h.Indices = NewIndexSet(idx...)
		budget -= h.Indices.Len()
		for q := 0; q < rng.Intn(3) && budget > 0; q++ {
			m := rng.Intn(budget + 1)
			qs := make([]Index, m)
			for i := range qs {
				qs[i] = Index(rng.Intn(32))
			}
			set := NewIndexSet(qs...).Minus(h.Indices)
			h.Queries = append(h.Queries, set)
			budget -= set.Len()
		}
		h.Normalize()
		data, err := c.Pack(h)
		if err != nil {
			t.Fatalf("trial %d: %v (header %v)", trial, err, h)
		}
		back, err := c.Unpack(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sameHeader(back, h) {
			t.Fatalf("trial %d: %v -> %v", trial, h, back)
		}
	}
}
