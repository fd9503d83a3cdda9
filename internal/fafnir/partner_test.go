package fafnir

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fafnir/internal/batch"
	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// TestPartnerProbeMatchesScan is the differential test of the referee
// processPE's exact-partner rule: every PE of every batch below is rerun on the inputs the
// tree gave it, and for every class every entry owes, in both directions, the
// probe must pick the very entry the comparator scan (scanPartner) picks on
// the remaining set, the class's rows minus the entry's Indices. The batches
// are TestPEOrderFree's (the Fig. 6 example and uniform and Zipf batches on an
// 8-rank tree) and a seeded sweep over a wider tree and a 4-rank leaf fan-in,
// each with and without deduplication and with and without a dark rank's
// reads remapped to its replica rank.
func TestPartnerProbeMatchesScan(t *testing.T) {
	type shape struct {
		e        *Engine
		layout   modPlacement
		queries  int
		size     int
		rows     uint64
		maxSeeds int64
	}
	shapes := []shape{
		{smallEngine(t, 8, 2, 16, 4), modPlacement{ranks: 8, bytes: 16}, 16, 8, 512, 3},
		{smallEngine(t, 16, 2, 32, 4), modPlacement{ranks: 16, bytes: 16}, 32, 16, 4096, 4},
		{smallEngine(t, 16, 4, 32, 4), modPlacement{ranks: 16, bytes: 16}, 32, 8, 1024, 4},
	}
	store := embedding.MustStore(4096, 4, 3)
	var hits, forwards int
	check := func(t *testing.T, e *Engine, layout Placement, b embedding.Batch, dedup bool, remap map[header.Index]int) {
		t.Helper()
		sc := e.getTreeScratch()
		defer e.putTreeScratch(sc)
		in, err := e.leafInputs(sc, store, layout, batch.Compile(b, dedup), remap)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.evalTree(b.Op, in, sc); err != nil {
			t.Fatal(err)
		}
		ws := newReferee(&sc.ws)
		for id := range e.flat {
			n := &e.flat[id]
			var inA, inB []denseEntry
			if n.leaf {
				if inA, _, err = ws.selfMerge(b.Op, gatherRanks(&sc.ws, in, n.ranksA)); err != nil {
					t.Fatal(err)
				}
				if inB, _, err = ws.selfMerge(b.Op, gatherRanks(&sc.ws, in, n.ranksB)); err != nil {
					t.Fatal(err)
				}
			} else {
				// The join's outputs: as sets, the referee's (TestPEMatchesReferee).
				inA = sc.memo[n.left].ents
				if n.right >= 0 {
					inB = sc.memo[n.right].ents
				}
			}
			for _, sides := range [2][2][]denseEntry{{inA, inB}, {inB, inA}} {
				side, opp := sides[0], sides[1]
				ws.index(opp)
				for i := range side {
					e := &side[i]
					for c := range ws.cls.rows {
						if !e.owes(c) {
							continue
						}
						qs := make(header.Bitset, ws.k)
						qs.AndNot(ws.cls.rows[c], e.indices)
						got, want := ws.partner(e, c, opp), scanPartner(qs, opp)
						if got != want {
							t.Fatalf("PE %d: remaining set %v of %v: probe %v, scan %v", id,
								ws.rows.AppendIndices(nil, qs), ws.rows.AppendIndices(nil, e.indices),
								partnerString(&sc.ws, got), partnerString(&sc.ws, want))
						}
						if got == nil {
							forwards++
						} else {
							hits++
						}
					}
				}
			}
		}
	}
	for _, dedup := range []bool{true, false} {
		t.Run(fmt.Sprintf("fig6/dedup=%v", dedup), func(t *testing.T) {
			check(t, smallEngine(t, 8, 2, 4, 4), tablePlacement{bytes: 16}, fig6Batch(), dedup, nil)
		})
		for si, sh := range shapes {
			for _, dist := range []embedding.Distribution{embedding.Uniform, embedding.Zipf} {
				for seed := int64(0); seed < sh.maxSeeds; seed++ {
					gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
						NumQueries: sh.queries, QuerySize: sh.size, Rows: sh.rows, Dist: dist, ZipfS: 1.3, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					b := gen.Batch(tensor.OpSum)
					// A dark rank's reads served by its replica rank, as the
					// faulted read loop remaps them.
					dark := int(seed) % sh.layout.ranks
					replica := map[header.Index]int{}
					for _, q := range b.Queries {
						for _, idx := range q.Indices {
							if sh.layout.Rank(idx) == dark {
								replica[idx] = (dark + sh.layout.ranks/2) % sh.layout.ranks
							}
						}
					}
					for _, remap := range []map[header.Index]int{nil, replica} {
						t.Run(fmt.Sprintf("shape%d/%v/%d/dedup=%v/remapped=%v", si, dist, seed, dedup, remap != nil), func(t *testing.T) {
							check(t, sh.e, sh.layout, b, dedup, remap)
						})
					}
				}
			}
		}
	}
	t.Logf("%d partners found, %d remaining sets forwarded", hits, forwards)
	if hits == 0 || forwards == 0 {
		t.Fatalf("sweep probed %d partners and %d forwards; both must occur", hits, forwards)
	}
}

func partnerString(ws *workScratch, e *denseEntry) string {
	if e == nil {
		return "none"
	}
	return fmt.Sprint(ws.rows.AppendIndices(nil, e.indices))
}

// TestGroupMatchesCanon pins that group is canon with its groups delimited:
// on random multisets of sets, flattening heads and next must give canon's
// order exactly, every chain must hold equal sets and no two chains the same
// set. The sets are drawn so that they all hash into the last two slots of the
// table group sizes, so probes collide and wrap around; one case per trial is
// duplicate-free at a power-of-two count, which leaves the table exactly half
// full.
func TestGroupMatchesCanon(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	halfFull := 0
	for trial := range 60 {
		rows := 64 + rng.Intn(2*64)
		ws := newReferee(&workScratch{})
		ws.begin(make(header.Dense, rows), queryClasses{})
		n := 1 << (1 + rng.Intn(6))
		distinct := n
		if trial%2 == 0 {
			distinct = 1 + rng.Intn(n/2+1)
		}
		// Candidate sets whose home slot, in a table sized for n, is one of
		// the last two.
		ws.table.reset(n)
		last := uint64(len(ws.table.slots) - 2)
		var pool []header.Bitset
		for len(pool) < distinct {
			s := make(header.Bitset, ws.k)
			for range 1 + rng.Intn(6) {
				s.Set(rng.Intn(rows))
			}
			if hashSet(s)>>ws.table.shift >= last && !slices.ContainsFunc(pool, s.Equal) {
				pool = append(pool, s)
			}
		}
		sets := slices.Clone(pool)
		for len(sets) < n {
			sets = append(sets, pool[rng.Intn(len(pool))])
		}
		rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })

		want := slices.Clone(ws.canon(sets))
		heads, next := ws.group(sets)
		var got []uint64
		for hi, h := range heads {
			if hi > 0 && sets[h].Equal(sets[heads[hi-1]]) {
				t.Fatalf("trial %d: groups %d and %d hold the same set", trial, hi-1, hi)
			}
			for p := int32(h); p >= 0; p = next[p] {
				if !sets[p].Equal(sets[h]) {
					t.Fatalf("trial %d: position %d chained behind head %d holds another set", trial, p, h)
				}
				got = append(got, uint64(p))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d sets, %d distinct): group %v, canon %v", trial, n, distinct, got, want)
		}
		if len(heads) != distinct {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(heads), distinct)
		}
		if 2*distinct >= len(ws.table.slots) {
			halfFull++
		}
	}
	if halfFull == 0 {
		t.Fatal("no trial filled a table at least half")
	}
}

// TestByClassMatchesGroup pins the referee selfMerge's class grouping to the
// grouping it replaced: group over every (entry, class) pair's full query, the
// class's rows, with the pairs listed in canon order. On every leaf stream of
// seeded random batches, shuffled, byClass must list the same pairs and give
// the same heads (group's, put in class order) and the same member chains. The batches repeat
// some queries verbatim (several queries in one class), run with and without
// deduplication (a non-dedup stream holds duplicate reads of one row), and
// run at B = 96 as well as B = 16, so that class fields span two words.
func TestByClassMatchesGroup(t *testing.T) {
	store := embedding.MustStore(512, 4, 3)
	layout := modPlacement{ranks: 8, bytes: 16}
	var chained, wide int
	for _, capacity := range []int{16, 96} {
		e := smallEngine(t, 8, 2, capacity, 4)
		for _, dist := range []embedding.Distribution{embedding.Uniform, embedding.Zipf} {
			for seed := int64(0); seed < 3; seed++ {
				gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
					NumQueries: capacity, QuerySize: 8, Rows: 512, Dist: dist, ZipfS: 1.3, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				b := gen.Batch(tensor.OpSum)
				rng := rand.New(rand.NewSource(seed))
				for range capacity / 8 {
					b.Queries[rng.Intn(capacity)] = b.Queries[rng.Intn(capacity)]
				}
				for _, dedup := range []bool{true, false} {
					sc := e.getTreeScratch()
					in, err := e.leafInputs(sc, store, layout, batch.Compile(b, dedup), nil)
					if err != nil {
						t.Fatal(err)
					}
					sc.ws.begin(in.rows, in.classes)
					ws := newReferee(&sc.ws)
					if in.classes.k > 1 {
						wide++
					}
					for id := range e.flat {
						n := &e.flat[id]
						if !n.leaf {
							continue
						}
						for _, ranks := range [][]int{n.ranksA, n.ranksB} {
							// Leaf streams arrive in canonical order; shuffled,
							// they are the random streams selfMerge must take.
							stream := slices.Clone(gatherRanks(&sc.ws, in, ranks))
							rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
							heads, next := ws.byClass(stream)
							heads, next = slices.Clone(heads), slices.Clone(next)
							// The pairs as selfMerge listed them before: the
							// stream in canon order, each entry's remaining sets
							// in canonical order, tagged with their full query.
							var owner []int32
							var sets []header.Bitset
							for _, pos := range ws.canon(ws.indicesOf(stream)) {
								for c := range ws.cls.rows {
									if stream[pos].owes(c) {
										owner = append(owner, int32(pos))
										sets = append(sets, ws.cls.rows[c])
									}
								}
							}
							if !slices.Equal(ws.owner, owner) {
								t.Fatalf("B=%d %v/%d dedup=%v PE %d: pairs from %v, want %v", capacity, dist, seed, dedup, id, ws.owner, owner)
							}
							for p, c := range ws.class {
								if !ws.cls.rows[c].Equal(sets[p]) {
									t.Fatalf("B=%d %v/%d dedup=%v PE %d: pair %d owes another class", capacity, dist, seed, dedup, id, p)
								}
							}
							// group lists the classes in the canonical order of
							// their rows, byClass in class order.
							wantHeads, wantNext := ws.group(sets)
							slices.SortFunc(wantHeads, func(a, b uint64) int { return cmp.Compare(ws.class[a], ws.class[b]) })
							if len(heads) != len(wantHeads) {
								t.Fatalf("B=%d %v/%d dedup=%v PE %d: %d classes, group has %d", capacity, dist, seed, dedup, id, len(heads), len(wantHeads))
							}
							for i, h := range heads {
								if uint64(h) != wantHeads[i] {
									t.Fatalf("B=%d %v/%d dedup=%v PE %d: head %d is pair %d, group's is %d", capacity, dist, seed, dedup, id, i, h, wantHeads[i])
								}
							}
							if !slices.Equal(next, wantNext) {
								t.Fatalf("B=%d %v/%d dedup=%v PE %d: chains %v, group's %v", capacity, dist, seed, dedup, id, next, wantNext)
							}
							chained += len(next) - len(heads)
						}
					}
					e.putTreeScratch(sc)
				}
			}
		}
	}
	if chained == 0 || wide == 0 {
		t.Fatalf("%d chained pairs, %d two-word class tables: the sweep must have both", chained, wide)
	}
}
