package header

import (
	"slices"
	"strings"
)

// Header is the metadata carried by every value flowing through the tree.
//
// Indices is the set of indices already reduced into the value. Queries lists,
// for every query that still needs this value, the indices of that query which
// have not yet been visited. At a leaf, Indices holds the single index the
// value was read from and Queries holds one remaining-set per query that uses
// the index; at the root, Queries is empty and Indices identifies the complete
// query the output belongs to.
type Header struct {
	Indices IndexSet
	Queries []IndexSet
}

// NewLeaf builds the header for a value freshly read from memory at index
// idx, needed by the given queries. Each entry of remaining must already
// exclude idx itself (the host-side batch rearrangement guarantees this; see
// package batch).
func NewLeaf(idx Index, remaining []IndexSet) Header {
	qs := make([]IndexSet, len(remaining))
	for i, r := range remaining {
		qs[i] = r.Clone()
	}
	return Header{Indices: NewIndexSet(idx), Queries: qs}
}

// Clone returns a deep copy of h.
func (h Header) Clone() Header {
	out := Header{Indices: h.Indices.Clone()}
	if h.Queries != nil {
		out.Queries = make([]IndexSet, len(h.Queries))
		for i, q := range h.Queries {
			out.Queries[i] = q.Clone()
		}
	}
	return out
}

// Complete reports whether the value has been fully reduced for at least one
// query: a header is complete when it reaches the root with an empty Queries
// field, or when one of its remaining-sets has been emptied along the way.
func (h Header) Complete() bool {
	if len(h.Queries) == 0 {
		return true
	}
	for _, q := range h.Queries {
		if q.Empty() {
			return true
		}
	}
	return false
}

// Normalize sorts and deduplicates the Queries field in place and returns h,
// so two headers that differ only in the order of their Queries fields
// normalize alike.
func (h *Header) Normalize() *Header {
	if len(h.Queries) == 0 {
		h.Queries = nil
		return h
	}
	slices.SortFunc(h.Queries, slices.Compare)
	h.Queries = slices.CompactFunc(h.Queries, IndexSet.Equal)
	return h
}

// String renders the header like the paper's notation:
// "[indices:{50, 11} | queries:{94, 26}]".
func (h Header) String() string {
	var b strings.Builder
	b.WriteString("[indices:")
	b.WriteString(h.Indices.String())
	b.WriteString(" | queries:")
	for i, q := range h.Queries {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(q.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Reduce computes the header of the reduction of the two values carrying a
// and b: the Indices fields are unioned, and each remaining-set that covers
// the counterpart's indices is kept with those indices excluded. Remaining-
// sets that do not cover the counterpart belong to queries that need only one
// of the two operands; the PE serves those via separate forward actions, so
// they are dropped from the reduced header.
//
// Reduce returns ok=false when no remaining-set of either side covers the
// other side's indices, i.e. the reduction is not needed by any query.
func Reduce(a, b Header) (Header, bool) {
	union := a.Indices.Union(b.Indices)
	qs := make([]IndexSet, 0, len(a.Queries)+len(b.Queries))
	for _, q := range a.Queries {
		if q.ContainsAll(b.Indices) {
			qs = append(qs, q.Minus(b.Indices))
		}
	}
	for _, q := range b.Queries {
		if q.ContainsAll(a.Indices) {
			qs = append(qs, q.Minus(a.Indices))
		}
	}
	if len(qs) == 0 {
		return Header{}, false
	}
	h := Header{Indices: union, Queries: qs}
	h.Normalize()
	return h, true
}

// Bits returns the number of header bits for a configuration with idxBits-bit
// indices and q indices per query. It backs the Table I buffer
// sizing: the paper's 10-byte header corresponds to q=16, 5-bit indices
// (16 x 5 / 8 = 10 bytes).
func Bits(idxBits, q int) int {
	return idxBits * q
}
