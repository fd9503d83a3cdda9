package fafnir

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fafnir/internal/batch"
	"fafnir/internal/embedding"
	"fafnir/internal/tensor"
)

// peSnapshot renders a PE output stream exactly: the entries in order, both
// header fields and the value bits, and the class chain.
func peSnapshot(out stream) string {
	var b strings.Builder
	for _, e := range out.ents {
		fmt.Fprintf(&b, "%x %x", e.indices, e.queries)
		for _, v := range e.value {
			fmt.Fprintf(&b, " %08x", math.Float32bits(v))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintln(&b, out.chain)
	return b.String()
}

// TestPEOrderFree pins that a PE's result does not depend on the order its
// input streams arrive in: every PE of the tree is rerun on seeded
// permutations of its inputs — a leaf's rank streams before selfMerge and
// the merged streams before processPE, an internal PE's children's outputs,
// each stream's chain following its entries — and must give the same
// outputs, in the same order (that of the least class each owes) and to the
// bit, with the same class chain and the same PEStats. Batches are the Fig. 6
// example and random uniform and Zipf hardware batches.
func TestPEOrderFree(t *testing.T) {
	type run struct {
		name   string
		e      *Engine
		layout Placement
		b      embedding.Batch
	}
	runs := []run{{"fig6", smallEngine(t, 8, 2, 4, 4), tablePlacement{bytes: 16}, fig6Batch()}}
	for _, dist := range []embedding.Distribution{embedding.Uniform, embedding.Zipf} {
		for seed := int64(0); seed < 3; seed++ {
			gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
				NumQueries: 16, QuerySize: 8, Rows: 512, Dist: dist, ZipfS: 1.3, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{fmt.Sprintf("%v/%d", dist, seed),
				smallEngine(t, 8, 2, 16, 4), modPlacement{ranks: 8, bytes: 16}, gen.Batch(tensor.OpSum)})
		}
	}
	store := embedding.MustStore(512, 4, 3)
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			sc := r.e.getTreeScratch()
			defer r.e.putTreeScratch(sc)
			in, err := r.e.leafInputs(sc, store, r.layout, batch.Compile(r.b, true), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.e.evalTree(r.b.Op, in, sc); err != nil {
				t.Fatal(err)
			}
			ws := &sc.ws
			rng := rand.New(rand.NewSource(1))
			shuffle := func(s []denseEntry) []denseEntry {
				out := make([]denseEntry, len(s))
				for i, j := range rng.Perm(len(s)) {
					out[i] = s[j]
				}
				return out
			}
			// shuffleStream permutes a stream's entries and relinks its chain.
			shuffleStream := func(s stream) stream {
				perm := rng.Perm(len(s.ents))
				out := stream{ents: make([]denseEntry, len(s.ents)), chain: slices.Clone(s.chain)}
				at := make([]int32, len(perm))
				for i, j := range perm {
					out.ents[i], at[j] = s.ents[j], int32(i)
				}
				for i := range out.chain {
					out.chain[i].ent = at[out.chain[i].ent]
				}
				return out
			}
			for id := range r.e.flat {
				n := &r.e.flat[id]
				want := peSnapshot(sc.memo[id])
				for perm := 0; perm < 4; perm++ {
					var inA, inB stream
					if n.leaf {
						var self PEStats
						for side, ranks := range [][]int{n.ranksA, n.ranksB} {
							merged, st, err := ws.selfMerge(r.b.Op, shuffle(gatherRanks(ws, in, ranks)))
							if err != nil {
								t.Fatal(err)
							}
							self.Add(st)
							if side == 0 {
								inA = merged
							} else {
								inB = merged
							}
						}
						if self != sc.self[id] {
							t.Fatalf("PE %d permutation %d: selfMerge stats %+v, in order %+v", id, perm, self, sc.self[id])
						}
					} else {
						inA = sc.memo[n.left]
						if n.right >= 0 {
							inB = sc.memo[n.right]
						}
					}
					out, st, err := ws.processPE(r.b.Op, shuffleStream(inA), shuffleStream(inB))
					if err != nil {
						t.Fatal(err)
					}
					if got := peSnapshot(out); got != want {
						t.Fatalf("PE %d permutation %d: outputs\n%s\nin order\n%s", id, perm, got, want)
					}
					if st != sc.proc[id] {
						t.Fatalf("PE %d permutation %d: stats %+v, in order %+v", id, perm, st, sc.proc[id])
					}
				}
			}
		})
	}
}
