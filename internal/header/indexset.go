// Package header implements the metadata that travels with every value
// through the Fafnir reduction tree.
//
// Each in-flight value carries a Header with two fields (Section IV-B of the
// paper):
//
//   - Indices: the set of embedding-vector indices whose values have already
//     been reduced into this value.
//   - Queries: one remaining-index set per query that still needs this value;
//     the indices listed have not been visited yet.
//
// A PE compares the Queries field of one input against the Indices field of
// the other to decide between a reduce and a forward, and the merge unit
// deduplicates identical outputs and concatenates the Queries fields of
// outputs that share the same Indices set. This package provides the index
// sets and those exact operations.
package header

import (
	"fmt"
	"slices"
	"strings"
)

// Index identifies one embedding vector (or one sparse-matrix row during
// SpMV). The paper's 32-table configuration uses 5-bit table identifiers; we
// allow the full 32-bit space so large tables and SpMV row spaces fit.
type Index = uint32

// IndexSet is a sorted, duplicate-free set of indices. The zero value is the
// empty set. All operations preserve the sorted invariant.
type IndexSet []Index

// NewIndexSet builds a set from the given indices, sorting and deduplicating.
func NewIndexSet(indices ...Index) IndexSet {
	if len(indices) == 0 {
		return nil
	}
	s := slices.Clone(IndexSet(indices))
	slices.Sort(s)
	return slices.Compact(s)
}

// Len reports the number of indices in s.
func (s IndexSet) Len() int { return len(s) }

// Empty reports whether s has no indices.
func (s IndexSet) Empty() bool { return len(s) == 0 }

// Clone returns a deep copy of s.
func (s IndexSet) Clone() IndexSet {
	if s == nil {
		return nil
	}
	c := make(IndexSet, len(s))
	copy(c, s)
	return c
}

// Contains reports whether x is a member of s.
func (s IndexSet) Contains(x Index) bool {
	_, ok := slices.BinarySearch(s, x)
	return ok
}

// ContainsAll reports whether every index of sub is a member of s. It is the
// PE's reduce test: input B may be reduced into an entry whose queries set is
// s only if s contains all of B's indices.
func (s IndexSet) ContainsAll(sub IndexSet) bool {
	if len(sub) > len(s) {
		return false
	}
	// Both sets are sorted, so a subset's extrema must lie inside s's; this
	// rejects most non-subsets without walking either set.
	if len(sub) > 0 && (sub[0] < s[0] || sub[len(sub)-1] > s[len(s)-1]) {
		return false
	}
	i := 0
	for _, x := range sub {
		// Both sets are sorted; advance a shared cursor.
		for i < len(s) && s[i] < x {
			i++
		}
		if i >= len(s) || s[i] != x {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether s and t contain exactly the same indices.
func (s IndexSet) Equal(t IndexSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Union returns the sorted union of s and t as a new set.
func (s IndexSet) Union(t IndexSet) IndexSet {
	if len(s) == 0 {
		return t.Clone()
	}
	if len(t) == 0 {
		return s.Clone()
	}
	out := make(IndexSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Minus returns s with every member of t removed, as a new set. It implements
// the header update "the queries field is created by excluding the indices of
// A and B" from Section IV-C.
func (s IndexSet) Minus(t IndexSet) IndexSet {
	if len(s) == 0 {
		return nil
	}
	if len(t) == 0 {
		return s.Clone()
	}
	out := make(IndexSet, 0, len(s))
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j < len(t) && t[j] == x {
			continue
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Intersects reports whether s and t share at least one index.
func (s IndexSet) Intersects(t IndexSet) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// String renders the set like "{1, 2, 5}".
func (s IndexSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte('}')
	return b.String()
}
