package header

import (
	"cmp"
	"testing"
)

// bitsetCase is one decoded FuzzBitsetOps input: a dense table and a few sets
// over it, each in both forms.
type bitsetCase struct {
	dense Dense
	sets  []IndexSet // the reference form, global indices
	bits  []Bitset
}

// decodeBitsetCase reads: two bytes of row count (mod 521), three bytes of
// base and one of step (row r is global index base + r*(step+1), so a table
// may straddle any byte boundary of the global index), then up to six sets,
// each a length byte (mod 32) followed by that many two-byte dense IDs (mod
// the row count). Truncated input yields fewer or shorter sets.
func decodeBitsetCase(data []byte) bitsetCase {
	var hdr [6]byte
	data = data[copy(hdr[:], data):]
	n := (int(hdr[0]) | int(hdr[1])<<8) % 521
	base := Index(hdr[2]) | Index(hdr[3])<<8 | Index(hdr[4])<<16
	c := bitsetCase{dense: make(Dense, n)}
	for r := range c.dense {
		c.dense[r] = base + Index(r)*(Index(hdr[5])+1)
	}
	for len(c.sets) < 6 && len(data) > 0 {
		size := int(data[0]) % 32
		data = data[1:]
		var members []Index
		b := make(Bitset, c.dense.Words())
		for ; size > 0 && len(data) >= 2 && n > 0; size-- {
			id := (int(data[0]) | int(data[1])<<8) % n
			data = data[2:]
			members = append(members, c.dense[id])
			b.Set(id)
		}
		c.sets = append(c.sets, NewIndexSet(members...))
		c.bits = append(c.bits, b)
	}
	return c
}

func sign(x int) int { return cmp.Compare(x, 0) }

// lowestApart is the reference for Bitset.Compare: the set holding the lowest
// member of the symmetric difference of s and u comes first.
func lowestApart(s, u IndexSet) int {
	diff := s.Minus(u).Union(u.Minus(s))
	switch {
	case diff.Empty():
		return 0
	case s.Contains(diff[0]):
		return -1
	}
	return 1
}

// FuzzBitsetOps is the differential test of the fixed-width header form
// against IndexSet, which stays the reference model: on random sets over up to
// 520 dense rows with an arbitrary ascending global table, conversion both
// ways, subset, overlap, equality, union, intersection, minus, the
// canonical comparator (the lowest member of the symmetric difference
// decides) and its SortKey shortcut must agree. Run with
//
//	go test -fuzz=FuzzBitsetOps ./internal/header
//
// The checked-in corpus covers sets straddling word boundaries (63/64/65,
// 127/128 and 511/512/513 rows), global indices whose little-endian bytes
// order them against numeric order (255 vs 256, 65535 vs 65536), prefixes and
// empty sets.
func FuzzBitsetOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{65, 0, 250, 0, 0, 0, 3, 63, 0, 64, 0, 5, 0, 2, 63, 0, 64, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeBitsetCase(data)
		d, k := c.dense, c.dense.Words()
		toBits := func(s IndexSet) Bitset {
			b := make(Bitset, k)
			if !d.Bitset(b, s) {
				t.Fatalf("Bitset rejects %v, a set of table rows", s)
			}
			return b
		}
		for i, s := range c.sets {
			a := c.bits[i]
			if !toBits(s).Equal(a) {
				t.Fatalf("Bitset(%v) = %x, want %x", s, toBits(s), a)
			}
			if back := d.AppendIndices(nil, a); !back.Equal(s) {
				t.Fatalf("AppendIndices(%x) = %v, want %v", a, back, s)
			}
			if a.Len() != s.Len() || a.Empty() != s.Empty() {
				t.Fatalf("%v: Len %d Empty %v", s, a.Len(), a.Empty())
			}
			if len(d) > 0 && d.Bitset(make(Bitset, k), IndexSet{d[len(d)-1] + 1}) {
				t.Fatal("Bitset accepts an index beyond the table")
			}
			for j, u := range c.sets {
				b := c.bits[j]
				if got, want := a.Covers(b), s.ContainsAll(u); got != want {
					t.Fatalf("%v covers %v: %v, ContainsAll %v", s, u, got, want)
				}
				if got, want := a.Intersects(b), s.Intersects(u); got != want {
					t.Fatalf("%v intersects %v: %v, want %v", s, u, got, want)
				}
				if got, want := a.Equal(b), s.Equal(u); got != want {
					t.Fatalf("%v equals %v: %v, want %v", s, u, got, want)
				}
				or, and, andNot := make(Bitset, k), make(Bitset, k), make(Bitset, k)
				or.Or(a, b)
				and.And(a, b)
				andNot.AndNot(a, b)
				if !or.Equal(toBits(s.Union(u))) || !and.Equal(toBits(s.Minus(s.Minus(u)))) || !andNot.Equal(toBits(s.Minus(u))) {
					t.Fatalf("%v, %v: union %v intersection %v minus %v", s, u,
						d.AppendIndices(nil, or), d.AppendIndices(nil, and), d.AppendIndices(nil, andNot))
				}
				want := lowestApart(s, u)
				if got := sign(a.Compare(b)); got != want {
					t.Fatalf("Compare(%v, %v) = %d, want %d", s, u, got, want)
				}
				if ka, kb := a.SortKey(), b.SortKey(); ka != kb && (ka < kb) != (want < 0) {
					t.Fatalf("SortKey orders %v (%x) and %v (%x) against Compare %d", s, ka, u, kb, want)
				}
			}
		}
	})
}
