package router

import (
	"slices"
	"testing"

	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/fault"
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// handOff is a sink recording every call's rows, checked against the store.
type handOff struct {
	t     *testing.T
	store *embedding.Store
	calls [][]header.Index
}

func (h *handOff) sink(rows []core.StagedRow) {
	var idx []header.Index
	for _, r := range rows {
		if !r.Row.Equal(h.store.MustVector(r.Index)) {
			h.t.Fatalf("row %d forwarded with another row's values", r.Index)
		}
		idx = append(idx, r.Index)
	}
	h.calls = append(h.calls, idx)
}

// TestFleetForwardsRowsInShardOrder: a fleet forwards the rows its shards
// read in one call per Lookup, shard by shard, each row under its own index
// — replica reads after a failover included, a lost shard's rows absent —
// at every Parallelism, and nothing once detached.
func TestFleetForwardsRowsInShardOrder(t *testing.T) {
	cases := []struct {
		name, faults string
		down         []int // the shards the plan takes down
	}{
		{"healthy", "", nil},
		{"failover", "shard=1@0", []int{1}},
		{"lost", "shard=1@0;shard=3@0", []int{1, 3}}, // each holds the other's replicas
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			f := testFleet(t, func(c *Config) {
				c.Parallelism = par
				if tc.faults != "" {
					plan, err := fault.ParseFleet(tc.faults)
					if err != nil {
						t.Fatal(err)
					}
					c.Fleet = plan
				}
			})
			h := &handOff{t: t, store: f.Store()}
			f.AttachRowSink(h.sink)
			b, err := f.GenerateBatch(16, 3)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Lookup(b); err != nil {
				t.Fatal(err)
			}
			// Shard s's buffer holds its own rows, then those of the shard it
			// replaced after a failover.
			var want []header.Index
			for s := 0; s < f.Shards(); s++ {
				for _, owner := range []int{s, f.replicaPeer(s)} {
					read := !slices.Contains(tc.down, s) && (owner == s || slices.Contains(tc.down, owner))
					for _, idx := range b.UniqueIndices() {
						if read && f.OwnerOf(idx) == owner {
							want = append(want, idx)
						}
					}
				}
			}
			if len(h.calls) != 1 || !slices.Equal(h.calls[0], want) {
				t.Fatalf("%s, Parallelism %d: forwarded %d calls, want one call of the %d rows read, in shard order",
					tc.name, par, len(h.calls), len(want))
			}

			f.AttachRowSink(nil)
			h.calls = nil
			if _, err := f.Lookup(b); err != nil {
				t.Fatal(err)
			}
			if h.calls != nil {
				t.Fatalf("%s: a detached fleet forwarded rows", tc.name)
			}
		}
	}
}

// TestFederationForwardsRowsInFleetOrder: a federation forwards its members'
// rows after the settle, one call per member in fleet order, and the union
// is exactly the batch's unique rows.
func TestFederationForwardsRowsInFleetOrder(t *testing.T) {
	fd := testFederation(t, func(c *FederationConfig) { c.Fleet.Parallelism = 0 })
	h := &handOff{t: t, store: fd.Fleet(0).Store()}
	fd.AttachRowSink(h.sink)
	b, err := fd.GenerateBatch(16, 9)
	if err != nil {
		t.Fatal(err)
	}
	b.Op = tensor.OpMax
	if _, err := fd.Lookup(b); err != nil {
		t.Fatal(err)
	}
	if len(h.calls) != fd.Fleets() {
		t.Fatalf("%d forward calls, want one per member (%d)", len(h.calls), fd.Fleets())
	}
	var got []header.Index
	for fm, idx := range h.calls {
		for _, i := range idx {
			if int(i)%fd.Fleets() != fm {
				t.Fatalf("call %d carries row %d of member %d", fm, i, int(i)%fd.Fleets())
			}
		}
		got = append(got, idx...)
	}
	if !slices.Equal(header.NewIndexSet(got...), b.UniqueIndices()) || len(got) != b.UniqueIndices().Len() {
		t.Fatalf("forwarded %d rows, want each of the %d unique rows once", len(got), b.UniqueIndices().Len())
	}
}
