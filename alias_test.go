package fafnir

import (
	"testing"
	"unsafe"
)

// Every backend keeps its per-batch working state (plans, tree scratches,
// shard sub-results, partial pools, the rnet node state) and reuses it for
// the next lookup. The outputs it returns are the one thing it must not
// reuse: the serving layer encodes a reply while the next batch is already
// running. These tests hold one result across the next lookup and check that
// its outputs neither changed nor share memory with the next result's, which
// is where any reused scratch would show.

// lookupBackend is what the aliasing tests drive: System, Fleet and
// Federation alike.
type lookupBackend interface {
	Lookup(Batch) (*LookupResult, error)
	GenerateBatch(n int, seed int64) (Batch, error)
}

func TestResultsOutliveTheNextLookup(t *testing.T) {
	sys, err := NewSystem(SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(FleetConfig{Shards: 4, Rows: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := NewFederation(FederationConfig{Fleets: 2, Fleet: FleetConfig{Shards: 4, Rows: 1 << 17}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		be   lookupBackend
	}{
		{"system", sys},
		{"fleet", fleet},
		{"federation", fed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Two batches of different shapes, so a reused slot would hold
			// other values, and a warm-up so every scratch exists.
			a, err := tc.be.GenerateBatch(8, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.be.GenerateBatch(40, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tc.be.Lookup(b); err != nil {
				t.Fatal(err)
			}
			held, err := tc.be.Lookup(a)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]Vector, len(held.Outputs))
			for i, v := range held.Outputs {
				want[i] = v.Clone()
			}
			for range 3 {
				next, err := tc.be.Lookup(b)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range held.Outputs {
					if !v.Equal(want[i]) {
						t.Fatalf("output %d of the held result changed under the next lookup", i)
					}
					for j, w := range next.Outputs {
						if overlaps(v, w) {
							t.Fatalf("output %d of the held result shares memory with output %d of the next", i, j)
						}
					}
				}
			}
		})
	}
}

// overlaps reports whether two vectors' backing arrays, to their capacity,
// share any element.
func overlaps(a, b Vector) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	const elem = unsafe.Sizeof(float32(0))
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*elem && b0 < a0+uintptr(cap(a))*elem
}
