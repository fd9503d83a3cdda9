// Package sparse provides the sparse-matrix substrate for the SpMV
// experiments: the LIL (list-of-lists) compression format the paper
// recommends for streaming (Section IV-D), COO for interchange,
// deterministic synthetic matrix generators standing in for the paper's
// scientific and graph workloads, and a reference SpMV implementation.
package sparse

import (
	"fmt"
	"math"
	"math/rand"

	"fafnir/internal/tensor"
)

// Coord is one non-zero element in coordinate form.
type Coord struct {
	Row, Col int
	Val      float32
}

// COO is an unordered coordinate-format matrix, the interchange format the
// generators produce.
type COO struct {
	Rows, Cols int
	Entries    []Coord
}

// Validate reports a descriptive error when entries fall outside the shape
// or coordinates repeat.
func (m *COO) Validate() error {
	_, _, _, err := m.sorted()
	return err
}

// entryCountError rejects entry counts the int32 row pointers cannot index.
func entryCountError(n int64) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("sparse: %d entries exceed the int32 index range", n)
	}
	return nil
}

// sorted checks the shape, every entry's bounds and that no coordinate
// repeats, and returns the entries ordered by (row, column) in one flat
// backing: cols[rowPtr[r]:rowPtr[r+1]] and the matching vals are row r.
//
// The order comes from two stable counting sorts, by column and then by
// row, so the cost is O(nnz + Rows + Cols) with no comparison sort. The
// second scatter fills every row in ascending column order, which puts
// equal coordinates next to each other: one compare with the slot just
// written finds a duplicate.
func (m *COO) sorted() (rowPtr, cols []int32, vals []float32, err error) {
	if m.Rows <= 0 || m.Cols <= 0 {
		return nil, nil, nil, fmt.Errorf("sparse: bad shape %dx%d", m.Rows, m.Cols)
	}
	if err := entryCountError(int64(len(m.Entries))); err != nil {
		return nil, nil, nil, err
	}
	rowPtr = make([]int32, m.Rows+1)
	colPos := make([]int32, m.Cols)
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.Row < 0 || e.Row >= m.Rows || e.Col < 0 || e.Col >= m.Cols {
			return nil, nil, nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, m.Rows, m.Cols)
		}
		rowPtr[e.Row+1]++
		colPos[e.Col]++
	}
	for r := 0; r < m.Rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	var sum int32
	for c, n := range colPos {
		colPos[c], sum = sum, sum+n
	}

	byCol := make([]int32, len(m.Entries)) // entry numbers, ordered by column
	for i := range m.Entries {
		c := m.Entries[i].Col
		byCol[colPos[c]] = int32(i)
		colPos[c]++
	}

	next := append([]int32(nil), rowPtr[:m.Rows]...) // next free slot per row
	cols = make([]int32, len(m.Entries))
	vals = make([]float32, len(m.Entries))
	for _, i := range byCol {
		e := &m.Entries[i]
		p := next[e.Row]
		if p > rowPtr[e.Row] && cols[p-1] == int32(e.Col) {
			return nil, nil, nil, fmt.Errorf("sparse: duplicate entry (%d,%d)", e.Row, e.Col)
		}
		cols[p], vals[p] = int32(e.Col), e.Val
		next[e.Row] = p + 1
	}
	return rowPtr, cols, vals, nil
}

// NNZ reports the number of non-zero entries.
func (m *COO) NNZ() int { return len(m.Entries) }

// LIL is the list-of-lists format of Section IV-D: the matrix is compressed
// along rows — each row stores its non-zero column indices and values —
// leaving the column dimension uncompressed so large matrices split cleanly
// into column chunks for parallel streaming.
type LIL struct {
	Rows, Cols int
	// ColIdx[r] lists the column indices of row r's non-zeros, ascending.
	// An empty row may be nil or zero-length.
	ColIdx [][]int32
	// Vals[r] lists the matching values.
	Vals [][]float32
}

// NewLIL returns an empty matrix of the given shape.
func NewLIL(rows, cols int) *LIL {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: bad shape %dx%d", rows, cols))
	}
	return &LIL{
		Rows:   rows,
		Cols:   cols,
		ColIdx: make([][]int32, rows),
		Vals:   make([][]float32, rows),
	}
}

// NewLILSized returns an empty matrix whose row r takes sizes[r] appended
// entries without allocating: every row is a zero-length window of one
// backing array per field, its capacity clipped so an append past the
// announced size cannot overwrite the next row.
func NewLILSized(rows, cols int, sizes []int) *LIL {
	l := NewLIL(rows, cols)
	total := 0
	for _, n := range sizes {
		total += n
	}
	flatCols, flatVals := make([]int32, total), make([]float32, total)
	off := 0
	for r, n := range sizes {
		l.ColIdx[r], l.Vals[r] = flatCols[off:off:off+n], flatVals[off:off:off+n]
		off += n
	}
	return l
}

// FromCOO builds a LIL matrix from coordinates, each row's entries ordered
// by column. All rows are windows of one backing array per field, so a
// matrix costs a constant number of allocations whatever its shape.
func FromCOO(m *COO) (*LIL, error) {
	rowPtr, cols, vals, err := m.sorted()
	if err != nil {
		return nil, err
	}
	l := NewLIL(m.Rows, m.Cols)
	for r := range l.ColIdx {
		s, e := rowPtr[r], rowPtr[r+1]
		l.ColIdx[r], l.Vals[r] = cols[s:e:e], vals[s:e:e]
	}
	return l, nil
}

// NNZ reports the number of non-zero entries.
func (l *LIL) NNZ() int {
	n := 0
	for _, r := range l.ColIdx {
		n += len(r)
	}
	return n
}

// Density reports NNZ / (Rows*Cols).
func (l *LIL) Density() float64 {
	return float64(l.NNZ()) / (float64(l.Rows) * float64(l.Cols))
}

// BytesStreamed reports the compressed size streamed from memory: for SpMV
// both data and indices stream through the tree (Table II), so each
// non-zero costs a value plus a column index.
func (l *LIL) BytesStreamed() int {
	return l.NNZ() * (4 + 4)
}

// lowerBound returns the first position in ascending cols holding a value
// >= v.
func lowerBound(cols []int32, v int32) int {
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cols[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ColumnChunk extracts the sub-matrix of columns [lo, hi) as a new LIL with
// original row numbering and column indices rebased to lo. It implements the
// splitting "through their non-compressed dimension" used to fit large
// matrices into the Fafnir tree (Fig. 8). A product that visits every chunk
// in turn walks them with a ChunkCursor instead and copies nothing.
func (l *LIL) ColumnChunk(lo, hi int) *LIL {
	if lo < 0 || hi > l.Cols || lo >= hi {
		panic(fmt.Sprintf("sparse: bad chunk [%d,%d) of %d cols", lo, hi, l.Cols))
	}
	c := NewLIL(l.Rows, hi-lo)
	// Rows are sorted by column: binary-search each window and park it in
	// the chunk as a view of l while counting, then replace the views by
	// rebased copies in one backing.
	total := 0
	for r, cols := range l.ColIdx {
		start := lowerBound(cols, int32(lo))
		end := start + lowerBound(cols[start:], int32(hi))
		c.ColIdx[r], c.Vals[r] = cols[start:end], l.Vals[r][start:end]
		total += end - start
	}
	flatCols, flatVals := make([]int32, total), make([]float32, total)
	off := 0
	for r, window := range c.ColIdx {
		end := off + len(window)
		for i, col := range window {
			flatCols[off+i] = col - int32(lo)
		}
		copy(flatVals[off:end], c.Vals[r])
		c.ColIdx[r], c.Vals[r] = flatCols[off:end:end], flatVals[off:end:end]
		off = end
	}
	return c
}

// ChunkCursor walks a matrix's column chunks from left to right without
// copying them. Rows are sorted by column and the chunks arrive in ascending
// column order, so each row's window in the next chunk begins where its
// previous one ended: a whole walk costs O(nnz + rows x chunks) and no
// search.
type ChunkCursor struct {
	m *LIL
	// Row r's window in the current chunk is entries [start[r], end[r]).
	start, end []int32
}

// Cursor returns a cursor positioned before column 0.
func (l *LIL) Cursor() *ChunkCursor {
	pos := make([]int32, 2*l.Rows)
	return &ChunkCursor{m: l, start: pos[:l.Rows], end: pos[l.Rows:]}
}

// Advance moves the cursor to the chunk that ends before column hi (it
// starts where the previous one ended) and reports how many rows have
// entries in it and how many entries that is.
func (c *ChunkCursor) Advance(hi int) (rows, elems int) {
	for r, cols := range c.m.ColIdx {
		s := int(c.end[r])
		e := s
		for e < len(cols) && int(cols[e]) < hi {
			e++
		}
		c.start[r], c.end[r] = int32(s), int32(e)
		if e > s {
			rows++
			elems += e - s
		}
	}
	return rows, elems
}

// Row returns row r's window in the current chunk as views of the matrix;
// the column indices are the matrix's own, not rebased to the chunk.
func (c *ChunkCursor) Row(r int) ([]int32, []float32) {
	s, e := c.start[r], c.end[r]
	return c.m.ColIdx[r][s:e], c.m.Vals[r][s:e]
}

// MulVec computes y = A*x, the reference SpMV all engines are validated
// against.
func (l *LIL) MulVec(x tensor.Vector) (tensor.Vector, error) {
	if len(x) != l.Cols {
		return nil, fmt.Errorf("sparse: vector of %d elements against %d columns", len(x), l.Cols)
	}
	y := tensor.New(l.Rows)
	for r := 0; r < l.Rows; r++ {
		var acc float32
		for i, c := range l.ColIdx[r] {
			acc += l.Vals[r][i] * x[c]
		}
		y[r] = acc
	}
	return y, nil
}

// smallVal returns a deterministic small integer value so float32 sums stay
// exact in tests.
func smallVal(rng *rand.Rand) float32 {
	return float32(rng.Intn(9) - 4)
}

// RandomUniform generates a matrix with each entry present independently at
// the given density (clamped to produce at least one entry), deterministic
// in seed.
func RandomUniform(rows, cols int, density float64, seed int64) *LIL {
	rng := rand.New(rand.NewSource(seed))
	target := int(density * float64(rows) * float64(cols))
	if target < 1 {
		target = 1
	}
	seen := newPairSet(target)
	coo := &COO{Rows: rows, Cols: cols, Entries: make([]Coord, 0, target)}
	for len(coo.Entries) < target {
		r, c := rng.Intn(rows), rng.Intn(cols)
		if !seen.add(r, c) {
			continue
		}
		v := smallVal(rng)
		if v == 0 {
			v = 1
		}
		coo.Entries = append(coo.Entries, Coord{Row: r, Col: c, Val: v})
	}
	l, err := FromCOO(coo)
	if err != nil {
		panic(err) // generator produces valid coordinates by construction
	}
	return l
}

// PowerLawGraph generates the adjacency matrix of a scale-free graph via
// preferential attachment (each new vertex attaches to edgesPerNode earlier
// vertices with probability proportional to their degree), a stand-in for
// the paper's graph workloads.
func PowerLawGraph(nodes, edgesPerNode int, seed int64) *LIL {
	if nodes < 2 || edgesPerNode < 1 {
		panic(fmt.Sprintf("sparse: bad graph shape nodes=%d edges=%d", nodes, edgesPerNode))
	}
	rng := rand.New(rand.NewSource(seed))
	// Two seed edges, then at most two per attachment.
	maxEdges := 2 + 2*(nodes-2)*edgesPerNode
	coo := &COO{Rows: nodes, Cols: nodes, Entries: make([]Coord, 0, maxEdges)}
	seen := newPairSet(maxEdges)
	// Degree-proportional sampling via a repeated-endpoints list.
	endpoints := make([]int, 0, 2*maxEdges)
	add := func(u, v int) {
		if u == v || !seen.add(u, v) {
			return
		}
		coo.Entries = append(coo.Entries, Coord{Row: u, Col: v, Val: 1})
		endpoints = append(endpoints, u, v)
	}
	add(0, 1)
	add(1, 0)
	for v := 2; v < nodes; v++ {
		for e := 0; e < edgesPerNode; e++ {
			var u int
			if len(endpoints) > 0 && rng.Float64() < 0.9 {
				u = endpoints[rng.Intn(len(endpoints))]
			} else {
				u = rng.Intn(v)
			}
			if u == v {
				u = rng.Intn(v)
			}
			add(v, u)
			add(u, v)
		}
	}
	l, err := FromCOO(coo)
	if err != nil {
		panic(err)
	}
	return l
}

// bandedNNZ counts the entries of a full n x n band of the given half-width.
func bandedNNZ(n, band int) int {
	b := min(band, n-1)
	return n*(2*b+1) - b*(b+1)
}

// Banded generates a banded matrix (half-bandwidth band on each side of the
// diagonal), the stand-in for the paper's scientific stencil and matrix-
// inversion workloads.
func Banded(n, band int, seed int64) *LIL {
	if n <= 0 || band < 0 {
		panic(fmt.Sprintf("sparse: bad banded shape n=%d band=%d", n, band))
	}
	rng := rand.New(rand.NewSource(seed))
	coo := &COO{Rows: n, Cols: n, Entries: make([]Coord, 0, bandedNNZ(n, band))}
	for r := 0; r < n; r++ {
		lo := r - band
		if lo < 0 {
			lo = 0
		}
		hi := r + band
		if hi >= n {
			hi = n - 1
		}
		for c := lo; c <= hi; c++ {
			v := smallVal(rng)
			if v == 0 {
				v = 1
			}
			coo.Entries = append(coo.Entries, Coord{Row: r, Col: c, Val: v})
		}
	}
	l, err := FromCOO(coo)
	if err != nil {
		panic(err)
	}
	return l
}

// DenseVector builds a deterministic dense operand vector of length n with
// small integer values.
func DenseVector(n int, seed int64) tensor.Vector {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n)
	for i := range x {
		x[i] = smallVal(rng)
	}
	return x
}

// SymmetricDiagDominant generates a symmetric, strictly diagonally dominant
// banded matrix — positive definite by Gershgorin's theorem — the canonical
// operator of discretized differential equations and the input the iterative
// solvers in internal/solver expect.
func SymmetricDiagDominant(n, band int, seed int64) *LIL {
	if n <= 0 || band < 0 {
		panic(fmt.Sprintf("sparse: bad SPD shape n=%d band=%d", n, band))
	}
	rng := rand.New(rand.NewSource(seed))
	coo := &COO{Rows: n, Cols: n, Entries: make([]Coord, 0, bandedNNZ(n, band))}
	offSum := make([]float32, n)
	for r := 0; r < n; r++ {
		hi := r + band
		if hi >= n {
			hi = n - 1
		}
		for c := r + 1; c <= hi; c++ {
			v := smallVal(rng)
			if v == 0 {
				v = 1
			}
			coo.Entries = append(coo.Entries, Coord{Row: r, Col: c, Val: v})
			coo.Entries = append(coo.Entries, Coord{Row: c, Col: r, Val: v})
			av := v
			if av < 0 {
				av = -av
			}
			offSum[r] += av
			offSum[c] += av
		}
	}
	for r := 0; r < n; r++ {
		coo.Entries = append(coo.Entries, Coord{Row: r, Col: r, Val: offSum[r] + 2})
	}
	l, err := FromCOO(coo)
	if err != nil {
		panic(err)
	}
	return l
}

// Diagonal extracts the main diagonal of the matrix.
func (l *LIL) Diagonal() tensor.Vector {
	d := tensor.New(l.Rows)
	for r := 0; r < l.Rows && r < l.Cols; r++ {
		for i, c := range l.ColIdx[r] {
			if int(c) == r {
				d[r] = l.Vals[r][i]
			}
		}
	}
	return d
}

// WithoutDiagonal returns a copy of the matrix with the main diagonal
// removed (the R = A - D operand of Jacobi iteration).
func (l *LIL) WithoutDiagonal() *LIL {
	sizes := make([]int, l.Rows)
	for r, cols := range l.ColIdx {
		sizes[r] = len(cols)
		if i := lowerBound(cols, int32(r)); i < len(cols) && int(cols[i]) == r {
			sizes[r]--
		}
	}
	out := NewLILSized(l.Rows, l.Cols, sizes)
	for r := range l.ColIdx {
		for i, c := range l.ColIdx[r] {
			if int(c) == r {
				continue
			}
			out.ColIdx[r] = append(out.ColIdx[r], c)
			out.Vals[r] = append(out.Vals[r], l.Vals[r][i])
		}
	}
	return out
}
