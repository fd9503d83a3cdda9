package fafnir

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"fafnir/internal/batch"
	"fafnir/internal/embedding"
	"fafnir/internal/tensor"
)

// peStatsPins holds one digest per case of TestPEStatsPinned: the sha256 (first
// 16 hex digits) of every PE's selfMerge and processPE PEStats over the case's
// hardware batches. They were recorded before the Queries field became a class
// bitset and must never move: PEStats count the modelled hardware's actions,
// not the host's.
var peStatsPins = map[string]string{
	"zipf/dedup/B32":       "f87cc73fd6ce30b5",
	"zipf/dedup/B128":      "8a730eac1a3673aa",
	"zipf/nodedup/B32":     "f87cc73fd6ce30b5",
	"zipf/nodedup/B128":    "8a730eac1a3673aa",
	"uniform/dedup/B32":    "d91123fa243c0700",
	"uniform/dedup/B128":   "13d201b8bb7fa44c",
	"uniform/nodedup/B32":  "d91123fa243c0700",
	"uniform/nodedup/B128": "13d201b8bb7fa44c",
}

// TestPEStatsPinned pins every PE's PEStats — InA, InB, Compares, Reduces,
// Forwards, MergedDuplicates and Outputs, of the leaf selfMerges and of
// processPE — on seeded paper-shape hardware batches (the default 32-rank
// tree, 16 indices per query): Zipf and uniform, with and without
// deduplication, at B = 32 and B = 128 (two-word Queries fields). A dedup
// and a non-dedup case pin the same digest: a leaf's selfMerge folds a
// duplicate read into the entry it repeats before any PE counts it.
func TestPEStatsPinned(t *testing.T) {
	store := embedding.MustStore(1<<16, 4, 3)
	layout := modPlacement{ranks: 32, bytes: 16}
	for _, dist := range []embedding.Distribution{embedding.Zipf, embedding.Uniform} {
		for _, dedup := range []bool{true, false} {
			for _, capacity := range []int{32, 128} {
				name := fmt.Sprintf("%v/dedup/B%d", dist, capacity)
				if !dedup {
					name = fmt.Sprintf("%v/nodedup/B%d", dist, capacity)
				}
				t.Run(name, func(t *testing.T) {
					e := smallEngine(t, 32, 2, capacity, 4)
					gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
						NumQueries: 2 * capacity, QuerySize: 16, Rows: 1 << 16, Dist: dist, ZipfS: 1.3, Seed: int64(capacity),
					})
					if err != nil {
						t.Fatal(err)
					}
					b := gen.Batch(tensor.OpSum)
					h := sha256.New()
					for _, start := range e.hwBatchStarts(nil, len(b.Queries)) {
						sc := e.getTreeScratch()
						in, err := e.leafInputs(sc, store, layout, batch.Compile(e.hwBatch(b, start), dedup), nil)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := e.runTree(sc, b.Op, in, nil, nil, nil); err != nil {
							t.Fatal(err)
						}
						for id := range e.flat {
							fmt.Fprintf(h, "%d self %+v proc %+v\n", id, sc.self[id], sc.proc[id])
						}
						e.putTreeScratch(sc)
					}
					if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != peStatsPins[name] {
						t.Errorf("PEStats digest %s, pinned %s", got, peStatsPins[name])
					}
				})
			}
		}
	}
}
