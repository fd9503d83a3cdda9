package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"slices"

	"fafnir"
	"fafnir/internal/sparse"
)

// The benchmark draws every input itself, from math/rand only, so that a
// change to the program's own generators (internal/embedding.Generator,
// System.GenerateBatch, sparse.DenseVector) cannot change what is measured.
// Each workload hashes what it generated; two result files compare only when
// the hashes agree.

const (
	querySize = 16      // indices per query, the paper's pooling factor
	zipfS     = 1.3     // popularity skew calibrated to the paper's Fig. 3
	hotRows   = 1 << 17 // the Zipf draws stay inside the first 128 Ki rows
)

// digest accumulates a workload's generated inputs into one SHA-256.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u32s(xs []uint32) {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], x)
		d.h.Write(b[:])
	}
}

func (d *digest) f32s(xs []float32) {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		d.h.Write(b[:])
	}
}

func (d *digest) int(x int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	d.h.Write(b[:])
}

func (d *digest) matrix(m *sparse.LIL) {
	d.int(m.Rows)
	d.int(m.Cols)
	for r := range m.ColIdx {
		d.int(len(m.ColIdx[r]))
		var b [4]byte
		for _, c := range m.ColIdx[r] {
			binary.LittleEndian.PutUint32(b[:], uint32(c))
			d.h.Write(b[:])
		}
		d.f32s(m.Vals[r])
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// indexDraw yields one embedding-row index.
type indexDraw func() uint32

// zipfDraw draws popularity ranks with skew zipfS over the first hotRows
// rows; rank k is row k, the convention of the program's own exhibits.
func zipfDraw(rng *rand.Rand) indexDraw {
	z := rand.NewZipf(rng, zipfS, 1, hotRows-1)
	return func() uint32 { return uint32(z.Uint64()) }
}

// uniformDraw draws uniformly over [0, rows).
func uniformDraw(rng *rand.Rand, rows uint64) indexDraw {
	return func() uint32 { return uint32(rng.Int63n(int64(rows))) }
}

// drawQuery draws querySize distinct indices, ascending.
func drawQuery(draw indexDraw) []uint32 {
	idx := make([]uint32, 0, querySize)
next:
	for len(idx) < querySize {
		r := draw()
		for _, x := range idx {
			if x == r {
				continue next
			}
		}
		idx = append(idx, r)
	}
	slices.Sort(idx)
	return idx
}

// drawQueries draws n queries and folds them into d.
func drawQueries(draw indexDraw, n int, d *digest) [][]uint32 {
	qs := make([][]uint32, n)
	for i := range qs {
		qs[i] = drawQuery(draw)
		d.u32s(qs[i])
	}
	return qs
}

// sumBatch bundles raw queries into a sum-pooled engine batch.
func sumBatch(qs [][]uint32) fafnir.Batch {
	queries := make([]fafnir.Query, len(qs))
	for i, q := range qs {
		queries[i] = fafnir.NewQuery(q...)
	}
	return fafnir.NewBatch(fafnir.OpSum, queries...)
}

// denseOperand draws an SpMV operand of small integer-valued entries (the
// products then stay well inside float32's exact range, like the stores').
func denseOperand(rng *rand.Rand, n int, d *digest) fafnir.Vector {
	x := make(fafnir.Vector, n)
	for i := range x {
		x[i] = float32(rng.Intn(7) - 3)
	}
	d.f32s(x)
	return x
}

// shuffledCOO turns a built matrix back into an unordered triplet list, the
// input shape sparse.FromCOO is handed by every generator.
func shuffledCOO(m *sparse.LIL, rng *rand.Rand) *sparse.COO {
	coo := &sparse.COO{Rows: m.Rows, Cols: m.Cols, Entries: make([]sparse.Coord, 0, m.NNZ())}
	for r := range m.ColIdx {
		for i, c := range m.ColIdx[r] {
			coo.Entries = append(coo.Entries, sparse.Coord{Row: r, Col: int(c), Val: m.Vals[r][i]})
		}
	}
	rng.Shuffle(len(coo.Entries), func(i, j int) {
		coo.Entries[i], coo.Entries[j] = coo.Entries[j], coo.Entries[i]
	})
	return coo
}
