package header

import (
	"math"
	"math/bits"
	"slices"
)

// This file holds the fixed-width form of the header fields. Inside one
// hardware batch every row the tree can meet is known up front, so the host
// numbers them 0..n-1 (a Dense table, ascending with the global index) and a
// header field becomes a Bitset value of Dense.Words() machine words: the PE's
// comparators test a whole field per word operation instead of merge-walking
// two sorted slices. IndexSet stays the public and wire form — and the
// reference model FuzzBitsetOps checks every operation here against.

// Bitset is a set of batch-local dense row IDs, one bit per ID. All sets of one
// batch have the same length, the batch's Dense.Words().
type Bitset []uint64

// Set adds dense row id to b.
func (b Bitset) Set(id int) { b[id>>6] |= 1 << (id & 63) }

// Empty reports whether b has no members.
func (b Bitset) Empty() bool {
	return !slices.ContainsFunc(b, func(w uint64) bool { return w != 0 })
}

// Len reports the number of members.
func (b Bitset) Len() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether b and c hold the same members.
func (b Bitset) Equal(c Bitset) bool { return slices.Equal(b, c) }

// Covers reports whether every member of sub is a member of b — the PE's
// reduce test (IndexSet.ContainsAll).
func (b Bitset) Covers(sub Bitset) bool {
	for i, w := range sub {
		if w&^b[i] != 0 {
			return false
		}
	}
	return true
}

// Sig folds b into one word, the OR of its words. A subset's Sig is a subset
// of its superset's, so one word operation on two Sigs rejects most failing
// Covers tests without touching either set.
func (b Bitset) Sig() (sig uint64) {
	for _, w := range b {
		sig |= w
	}
	return sig
}

// Intersects reports whether b and c share a member.
func (b Bitset) Intersects(c Bitset) bool {
	for i, w := range c {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// Or stores the union of s and t in b (IndexSet.Union).
func (b Bitset) Or(s, t Bitset) {
	for i := range b {
		b[i] = s[i] | t[i]
	}
}

// AndNot stores s without the members of t in b (IndexSet.Minus).
func (b Bitset) AndNot(s, t Bitset) {
	for i := range b {
		b[i] = s[i] &^ t[i]
	}
}

// SortKey packs b's two lowest members, the lower one in the high half, with
// math.MaxUint32 standing in where b has none. Compare orders two sets whose
// keys differ the way the keys order; sorts cache it so most comparisons are
// one integer compare.
func (b Bitset) SortKey() uint64 {
	first := uint64(math.MaxUint32)
	for i, w := range b {
		for ; w != 0; w &= w - 1 {
			id := uint64(i<<6 + bits.TrailingZeros64(w))
			if first != math.MaxUint32 {
				return first<<32 | id
			}
			first = id
		}
	}
	return first<<32 | math.MaxUint32
}

// Compare is the merge unit's canonical order: the set holding the lowest row
// the two do not share comes first. All it has to do is bring equal sets
// together, so it reads only the bits, never the global indices behind them.
func (b Bitset) Compare(c Bitset) int {
	for i, w := range b {
		if diff := w ^ c[i]; diff != 0 {
			if w&diff&-diff != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Insert adds set to b — a Queries field: len(set)-long sets back to back, in
// Compare order, duplicate-free — and returns the extended list. Sets mostly
// arrive in order, so the scan starts at the end.
func (b Bitset) Insert(set Bitset) Bitset {
	k := len(set)
	at := len(b)
	for ; at > 0; at -= k {
		c := b[at-k : at].Compare(set)
		if c == 0 {
			return b
		}
		if c < 0 {
			break
		}
	}
	b = append(b, set...)
	copy(b[at+k:], b[at:])
	copy(b[at:], set)
	return b
}

// Dense is the ID space of one batch: Dense[id] is the global index of dense
// row id, strictly ascending.
type Dense []Index

// Words reports the length of every Bitset over d (at least one word).
func (d Dense) Words() int { return max(1, (len(d)+63)/64) }

// Bitset stores s in dst, which must be Words() long, and reports whether every
// index of s is a row of d.
func (d Dense) Bitset(dst Bitset, s IndexSet) bool {
	clear(dst)
	for _, x := range s {
		id, ok := slices.BinarySearch(d, x)
		if !ok {
			return false
		}
		dst.Set(id)
	}
	return true
}

// AppendIndices appends the global indices of b to dst, ascending.
func (d Dense) AppendIndices(dst IndexSet, b Bitset) IndexSet {
	for i, w := range b {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, d[i<<6+bits.TrailingZeros64(w)])
		}
	}
	return dst
}
