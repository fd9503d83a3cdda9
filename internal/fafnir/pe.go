package fafnir

import (
	"fmt"
	"slices"

	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// Entry is one value in flight through the tree: the (partially reduced)
// embedding data and its header. Values are treated as immutable once inside
// an entry; reduce actions clone before combining.
type Entry struct {
	Value  tensor.Vector
	Header header.Header
}

// Clone deep-copies the entry.
func (e Entry) Clone() Entry {
	return Entry{Value: e.Value.Clone(), Header: e.Header.Clone()}
}

// String renders the entry's header (values are elided).
func (e Entry) String() string {
	return fmt.Sprintf("Entry%s", e.Header.String())
}

// PEStats counts what one PE invocation did, for the timing model and for
// validating the paper's min(nm+n+m, B) output bound.
type PEStats struct {
	// InA and InB are the input occupancies.
	InA, InB int
	// Compares counts header comparisons performed (each query set of each
	// entry against each opposite entry's indices field).
	Compares int
	// Reduces counts reduce actions (a value pair combined).
	Reduces int
	// Forwards counts forward actions (a query set passed through).
	Forwards int
	// MergedDuplicates counts raw outputs eliminated or folded by the
	// merge unit.
	MergedDuplicates int
	// Outputs is the post-merge output occupancy.
	Outputs int
}

// Add accumulates o into s.
func (s *PEStats) Add(o PEStats) {
	s.InA += o.InA
	s.InB += o.InB
	s.Compares += o.Compares
	s.Reduces += o.Reduces
	s.Forwards += o.Forwards
	s.MergedDuplicates += o.MergedDuplicates
	s.Outputs += o.Outputs
}

// fold is the merge unit: raw PE outputs sharing an Indices set collapse into
// one entry whose Queries fields are concatenated and canonicalized, and the
// result is sorted by canonical indices key — the step that makes PE
// evaluation deterministic regardless of input order.
//
// This is the sort-based equivalent of the old map-keyed merge: a stable sort
// on Indices.Compare (byte-order-equal to the old map key) brings duplicates
// adjacent while preserving arrival order within a group, so the group's
// representative value is still the first-arriving one, and concatenating the
// group's Queries then normalizing once yields the same sorted deduped set
// union the old pairwise MergeQueries chain produced. Distinct groups carry
// distinct Indices sets, so the sort gives the same unique total order the
// old finalize sort did.
func (ws *workScratch) fold(raw []Entry, stats *PEStats) []Entry {
	if len(raw) == 0 {
		stats.Outputs = 0
		return nil
	}
	// Sort a position permutation instead of the entries themselves: moving
	// int32s beats moving 72-byte structs, and breaking comparison ties by
	// position makes the unstable sort reproduce the stable order exactly.
	ord := ws.order[:0]
	for i := range raw {
		ord = append(ord, int32(i))
	}
	ws.order = ord
	slices.SortFunc(ord, func(a, b int32) int {
		if c := raw[a].Header.Indices.Compare(raw[b].Header.Indices); c != 0 {
			return c
		}
		return int(a) - int(b)
	})
	groups := 1
	for i := 1; i < len(ord); i++ {
		if !raw[ord[i]].Header.Indices.Equal(raw[ord[i-1]].Header.Indices) {
			groups++
		}
	}
	out := ws.ents.alloc(groups)
	k := 0
	for i := 0; i < len(ord); {
		first := &raw[ord[i]]
		j := i + 1
		nq := len(first.Header.Queries)
		for j < len(ord) && raw[ord[j]].Header.Indices.Equal(first.Header.Indices) {
			nq += len(raw[ord[j]].Header.Queries)
			j++
		}
		if j == i+1 {
			out[k] = *first
		} else {
			buf := ws.qs.alloc(nq)[:0]
			for m := i; m < j; m++ {
				buf = append(buf, raw[ord[m]].Header.Queries...)
			}
			h := header.Header{Indices: first.Header.Indices, Queries: buf}
			h.Normalize()
			out[k] = Entry{Value: first.Value, Header: h}
			stats.MergedDuplicates += j - i - 1
		}
		k++
		i = j
	}
	stats.Outputs = len(out)
	return out
}

// processPE is ProcessPE on a caller-provided scratch: every action allocates
// from the scratch's arenas, so the returned entries are valid only while the
// scratch is. See ProcessPE for the semantics.
func processPE(ws *workScratch, op tensor.ReduceOp, inA, inB []Entry) ([]Entry, PEStats, error) {
	stats := PEStats{InA: len(inA), InB: len(inB)}
	raw := ws.raw[:0]

	process := func(side, opp []Entry) error {
		for i := range side {
			e := &side[i]
			if len(e.Header.Queries) == 0 {
				// Nothing owed by any query: pass through untouched.
				// Headers are immutable in flight, so the output may
				// share the input's sets.
				stats.Forwards++
				raw = append(raw, Entry{Value: e.Value, Header: e.Header})
				continue
			}
			for _, qs := range e.Header.Queries {
				var best *Entry
				for oi := range opp {
					o := &opp[oi]
					stats.Compares++
					if o.Header.Indices.Empty() || !qs.ContainsAll(o.Header.Indices) {
						continue
					}
					if best == nil || o.Header.Indices.Len() > best.Header.Indices.Len() {
						best = o
					}
				}
				if best == nil {
					stats.Forwards++
					raw = append(raw, Entry{
						Value:  e.Value,
						Header: header.Header{Indices: e.Header.Indices, Queries: ws.qset1(qs)},
					})
					continue
				}
				v := ws.cloneVec(e.Value)
				if err := op.Apply(v, best.Value); err != nil {
					return fmt.Errorf("fafnir: reduce value: %w", err)
				}
				stats.Reduces++
				raw = append(raw, Entry{
					Value: v,
					Header: header.Header{
						Indices: ws.union(e.Header.Indices, best.Header.Indices),
						Queries: ws.qset1(ws.minus(qs, best.Header.Indices)),
					},
				})
			}
		}
		return nil
	}
	err := process(inA, inB)
	if err == nil {
		err = process(inB, inA)
	}
	ws.raw = raw
	if err != nil {
		return nil, stats, err
	}
	return ws.fold(raw, &stats), stats, nil
}

// selfMerge is SelfMerge on a caller-provided scratch; see SelfMerge for the
// semantics and processPE for the arena lifetime rules.
//
// Grouping is sort-based: every (entry, remaining-set) pair is tagged with
// its full query, and a stable sort on (full-query key) brings each group's
// members adjacent in ascending stream order — the same member order the old
// map-of-groups built — before the usual canonical-order reduction.
func selfMerge(ws *workScratch, op tensor.ReduceOp, entries []Entry) ([]Entry, PEStats, error) {
	var total PEStats

	pairs := ws.pairs[:0]
	for i := range entries {
		e := &entries[i]
		if len(e.Header.Queries) == 0 {
			continue // passthrough, re-emitted after the groups
		}
		for _, qs := range e.Header.Queries {
			pairs = append(pairs, selfPair{full: ws.union(e.Header.Indices, qs), member: i})
		}
	}
	ws.pairs = pairs
	// Position-permutation sort with position tiebreak: identical order to a
	// stable sort without moving the pair structs (see fold). fold reuses
	// ws.order afterwards, by which point the group loop here is done.
	ord := ws.order[:0]
	for i := range pairs {
		ord = append(ord, int32(i))
	}
	ws.order = ord
	slices.SortFunc(ord, func(a, b int32) int {
		if c := pairs[a].full.Compare(pairs[b].full); c != 0 {
			return c
		}
		return int(a) - int(b)
	})

	raw := ws.raw[:0]
	defer func() { ws.raw = raw }()
	for i := 0; i < len(ord); {
		full := pairs[ord[i]].full
		j := i + 1
		for j < len(ord) && pairs[ord[j]].full.Equal(full) {
			j++
		}
		// Collect the group's members: stream positions ascending, duplicate
		// positions (one entry owing the same full query via two remaining
		// sets) dropped.
		members := ws.members[:0]
		for m := i; m < j; m++ {
			if pm := pairs[ord[m]].member; len(members) == 0 || members[len(members)-1] != pm {
				members = append(members, pm)
			}
		}
		ws.members = members

		// Reduce the group: members combine in canonical (indices-key) order.
		slices.SortFunc(members, func(a, b int) int {
			return entries[a].Header.Indices.Compare(entries[b].Header.Indices)
		})
		first := entries[members[0]]
		covered := first.Header.Indices
		value := first.Value
		for _, mi := range members[1:] {
			m := entries[mi]
			if covered.ContainsAll(m.Header.Indices) {
				continue // duplicate read of the same data (non-dedup stream)
			}
			if covered.Intersects(m.Header.Indices) {
				return nil, total, fmt.Errorf("fafnir: SelfMerge stream entries overlap at %v", m.Header.Indices)
			}
			v := ws.cloneVec(value)
			if err := op.Apply(v, m.Value); err != nil {
				return nil, total, fmt.Errorf("fafnir: SelfMerge reduce: %w", err)
			}
			value = v
			covered = ws.union(covered, m.Header.Indices)
			total.Reduces++
		}
		raw = append(raw, Entry{
			Value:  value,
			Header: header.Header{Indices: covered, Queries: ws.qset1(ws.minus(full, covered))},
		})
		i = j
	}
	for i := range entries {
		if len(entries[i].Header.Queries) == 0 {
			raw = append(raw, entries[i])
		}
	}
	return ws.fold(raw, &total), total, nil
}

// ProcessPE runs the functional semantics of one PE over its two input
// buffers (Section IV-B/IV-C). For every entry and every remaining-index set
// in its Queries field, the compute units compare the set against the
// indices field of every entry of the opposite input:
//
//   - when opposite entries are covered by the set, the value is reduced
//     with the *maximal* covered entry — the opposite subtree's complete
//     partial reduction for that query — producing the unioned indices and
//     the remaining set minus the partner's indices;
//   - when no opposite entry is covered, the set is forwarded unchanged;
//   - entries whose remaining set is already empty (fully reduced queries
//     travelling to the root) always forward.
//
// The merge unit then removes duplicate outputs (the same reduction reached
// from both input directions) and folds outputs sharing an Indices set into
// one entry with concatenated Queries fields.
//
// Reducing with the maximal covered entry rather than every covered entry is
// what keeps each query's reduction a single chain through the tree: an
// inductive invariant of the tree is that each subtree emits exactly one
// entry covering all of a query's indices within that subtree, so the
// maximal match is that entry and smaller matches are its superseded
// sub-chains. Outputs are sorted by canonical header key, making the engine
// deterministic regardless of input order.
//
// This exported form allocates a private scratch whose memory is owned by the
// returned entries, so results live as long as the caller keeps them. The
// engine's hot path uses processPE on the pooled treeScratch instead.
func ProcessPE(op tensor.ReduceOp, inA, inB []Entry) ([]Entry, PEStats, error) {
	return processPE(newWorkScratch(), op, inA, inB)
}

// SelfMerge reduces co-query entries that sit in the *same* input stream.
//
// Cross-input comparison alone cannot combine two indices of one query that
// live on the same rank (the paper's own Fig. 6 example needs this: indices
// 44 and 94 both reside in table 4). Physically the leaf PE receives a
// rank's entries serially and can compare each arriving entry against the
// ones already buffered; SelfMerge models the result of that serial pass.
//
// The implementation groups every (entry, remaining-set) pair by the full
// query it belongs to (the union of the entry's indices and the remaining
// set), reduces each group's members in canonical order, and re-emits one
// entry per group with the group's indices united and the remaining set
// shrunk accordingly. Entries within one group must have pairwise disjoint
// indices — true for leaf streams, where each planned access contributes one
// distinct index — and SelfMerge returns an error otherwise.
//
// The returned stats count the reduce actions and merge-unit folds performed.
// Like ProcessPE, this exported form allocates a private scratch owned by the
// results.
func SelfMerge(op tensor.ReduceOp, entries []Entry) ([]Entry, PEStats, error) {
	return selfMerge(newWorkScratch(), op, entries)
}
