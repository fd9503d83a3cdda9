// Package batch implements the host-side batch rearrangement of Section IV-C:
// a batch of queries is turned into a list of memory accesses — one per
// *unique* index when deduplication is on — each tagged with the header the
// Fafnir tree needs (the remaining-index set of every query that uses the
// index). This is the mechanism that replaces RecNMP's caches: each unique
// index is read from DRAM once and reused through the tree as many times as
// the batch requires.
package batch

import (
	"fmt"
	"slices"

	"fafnir/internal/embedding"
	"fafnir/internal/header"
)

// Access is one memory access the host compiles for the NDP root: the index
// to read and the queries that consume it. Remaining is the sorted-slice form
// of what the leaf PE stamps into the value's header Queries field — for every
// using query, the set of its indices not yet visited (the query minus this
// index). The engine derives the same field in bit form from Row and Users,
// so only Build materializes it.
type Access struct {
	Index     header.Index
	Remaining []header.IndexSet
	// Row is Index's batch-local dense ID: Plan.Rows[Row] == Index.
	Row int32
	// Users lists the positions of the queries that use the read, ascending.
	Users []int32
}

// Plan is the compiled form of a batch.
type Plan struct {
	// Accesses lists the memory reads in ascending index order (and, without
	// dedup, in query order for equal indices).
	Accesses []Access
	// Dedup records whether duplicate indices across queries were coalesced.
	Dedup bool
	// Rows numbers the batch's unique indices: the dense ID space every
	// header.Bitset of this plan is over.
	Rows header.Dense

	batch embedding.Batch
	qbits header.Bitset // Rows.Words() words per query
}

// Compile compiles a batch. With dedup true, every distinct index produces
// one access used by every query that holds it; with dedup false (the paper's
// "neither eliminates redundant accesses" ablation of Fig. 13), every
// (query, index) pair produces its own access.
//
// Compilation is one sort: the (index, query position) pairs, packed into a
// word each, come out grouped by index with the batch's unique indices in
// ascending order, which numbers the dense rows, fills one row bitset per
// query and cuts the accesses. Compile runs once per hardware batch on the
// timed path, so its constant factors matter; the plan carries no
// sorted-slice header (see Build).
func Compile(b embedding.Batch, dedup bool) *Plan {
	pairs := make([]uint64, 0, b.TotalAccesses())
	for qi, q := range b.Queries {
		for _, idx := range q.Indices {
			pairs = append(pairs, uint64(idx)<<32|uint64(qi))
		}
	}
	slices.Sort(pairs)
	p := &Plan{Dedup: dedup, batch: b, Rows: make(header.Dense, 0, len(pairs)), Accesses: make([]Access, 0, len(pairs))}
	users := make([]int32, len(pairs))
	for i, pr := range pairs {
		idx := header.Index(pr >> 32)
		fresh := len(p.Rows) == 0 || p.Rows[len(p.Rows)-1] != idx
		if fresh {
			p.Rows = append(p.Rows, idx)
		}
		if fresh || !dedup {
			p.Accesses = append(p.Accesses, Access{Index: idx, Row: int32(len(p.Rows) - 1), Users: users[i:i]})
		}
		a := &p.Accesses[len(p.Accesses)-1]
		a.Users = append(a.Users, int32(uint32(pr))) // lands in users[i]: an access's pairs are consecutive
	}
	p.qbits = make(header.Bitset, p.Rows.Words()*len(b.Queries))
	for _, a := range p.Accesses {
		for _, qi := range a.Users {
			p.QueryBits(int(qi)).Set(int(a.Row))
		}
	}
	return p
}

// Build is Compile plus the sorted-slice form of every access's header,
// Access.Remaining, for callers that inspect or print plans; it is derived
// from the compiled grouping, every remaining set carved out of one backing
// array.
func Build(b embedding.Batch, dedup bool) *Plan {
	p := Compile(b, dedup)
	remLen := 0
	for _, q := range b.Queries {
		remLen += q.Indices.Len() * (q.Indices.Len() - 1)
	}
	backing := make(header.IndexSet, 0, remLen)
	sets := make([]header.IndexSet, 0, p.TotalAccesses())
	for i := range p.Accesses {
		a := &p.Accesses[i]
		lo := len(sets)
		for _, qi := range a.Users {
			q := b.Queries[qi].Indices
			at, start := slices.Index(q, a.Index), len(backing)
			backing = append(append(backing, q[:at]...), q[at+1:]...)
			sets = append(sets, backing[start:len(backing):len(backing)])
		}
		// Two identical queries need the value the same way: one remaining-set
		// serves both, and QueriesFor maps the completed output back to every
		// matching query position.
		own := sets[lo:len(sets):len(sets)]
		slices.SortFunc(own, slices.Compare)
		a.Remaining = slices.CompactFunc(own, header.IndexSet.Equal)
	}
	return p
}

// Batch returns the batch the plan was compiled from.
func (p *Plan) Batch() embedding.Batch { return p.batch }

// NumAccesses reports how many memory reads the plan issues.
func (p *Plan) NumAccesses() int { return len(p.Accesses) }

// TotalAccesses reports the reads a naive (non-dedup) execution would issue.
func (p *Plan) TotalAccesses() int { return p.batch.TotalAccesses() }

// Savings reports the fraction of memory accesses eliminated by
// deduplication (Fig. 15: 34 %, 43 %, 58 % for batches of 8, 16, 32).
func (p *Plan) Savings() float64 {
	total := p.TotalAccesses()
	if total == 0 {
		return 0
	}
	return 1 - float64(len(p.Accesses))/float64(total)
}

// QueryBits returns the rows of the query at position qi: the full set a
// complete root output for it carries. The leaf remaining-set of an access
// the query uses is this minus the access's Row.
func (p *Plan) QueryBits(qi int) header.Bitset {
	k := p.Rows.Words()
	return p.qbits[qi*k : (qi+1)*k]
}

// QueriesFor maps a completed root output — identified by its full indices
// set — back to the positions of the batch queries it answers.
func (p *Plan) QueriesFor(indices header.IndexSet) []int {
	set := make(header.Bitset, p.Rows.Words())
	if !p.Rows.Bitset(set, indices) {
		return nil
	}
	var out []int
	for qi := range p.batch.Queries {
		if p.QueryBits(qi).Equal(set) {
			out = append(out, qi)
		}
	}
	return out
}

// LeafHeader builds the header a leaf PE attaches to the value read by
// access a.
func (a Access) LeafHeader() header.Header {
	return header.NewLeaf(a.Index, a.Remaining)
}

// Validate checks the plan's internal consistency in both forms: every query
// of the batch must be fully covered by the accesses, no access may reference
// an index outside the batch, and the row sets the engine computes with must
// spell exactly the batch's indices. Engines call this in tests and debug
// builds.
func (p *Plan) Validate() error {
	k := p.Rows.Words()
	set := make(header.Bitset, k)
	for qi, q := range p.batch.Queries {
		if !p.Rows.Bitset(set, q.Indices) || !set.Equal(p.QueryBits(qi)) {
			return fmt.Errorf("batch: query %d's row set does not spell its indices %v", qi, q.Indices)
		}
	}
	reads := make([]int, len(p.Rows))
	served := make(header.Bitset, len(p.qbits))
	for _, a := range p.Accesses {
		if int(a.Row) >= len(p.Rows) || p.Rows[a.Row] != a.Index || len(a.Users) == 0 {
			return fmt.Errorf("batch: access to index %d not used by any query", a.Index)
		}
		reads[a.Row]++
		for _, qi := range a.Users {
			served[int(qi)*k:][:k].Set(int(a.Row))
		}
		// Every remaining-set must be the owning query minus the access index.
		for _, rem := range a.Remaining {
			if len(p.QueriesFor(rem.Union(header.NewIndexSet(a.Index)))) == 0 {
				return fmt.Errorf("batch: access %d carries remaining set %v matching no query", a.Index, rem)
			}
		}
	}
	for row, n := range reads {
		if n == 0 || p.Dedup && n != 1 {
			return fmt.Errorf("batch: index %d is read %d times (dedup=%v)", p.Rows[row], n, p.Dedup)
		}
	}
	// A user outside the query set, or a query index no access serves, shows here.
	if !served.Equal(p.qbits) {
		return fmt.Errorf("batch: the accesses' users do not cover the queries' indices exactly")
	}
	return nil
}
