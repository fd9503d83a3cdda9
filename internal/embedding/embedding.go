// Package embedding provides the recommendation-system workload substrate:
// embedding tables with deterministic synthetic contents, queries and
// batches, popularity-skewed query generators, and the golden (reference)
// lookup-and-reduce implementation every engine is validated against.
//
// The paper's workloads are production embedding traces; those are not
// available, so the generators here synthesize the property the evaluation
// depends on — queries in a batch share indices with a tunable skew
// (Fig. 3) — using uniform and Zipfian row-popularity distributions.
package embedding

import (
	"fmt"
	"math/rand"
	"slices"

	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// Store holds the synthetic contents of all embedding tables. Vector values
// are computed on demand from a seeded hash, so arbitrarily large tables cost
// no memory. Values are small integers, which keeps float32 summation exact
// and lets tests compare reductions bit-for-bit.
type Store struct {
	totalRows uint64
	dim       int
	seed      uint64
}

// NewStore builds a store covering totalRows embedding vectors of dimension
// dim, with contents derived from seed. It returns an error for an empty
// shape.
func NewStore(totalRows uint64, dim int, seed uint64) (*Store, error) {
	if totalRows == 0 || dim <= 0 {
		return nil, fmt.Errorf("embedding: bad store shape rows=%d dim=%d", totalRows, dim)
	}
	return &Store{totalRows: totalRows, dim: dim, seed: seed}, nil
}

// MustStore is NewStore for callers with statically valid shapes (tests,
// examples); it panics on error.
func MustStore(totalRows uint64, dim int, seed uint64) *Store {
	s, err := NewStore(totalRows, dim, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim reports the embedding dimension.
func (s *Store) Dim() int { return s.dim }

// TotalRows reports the number of vectors in the store.
func (s *Store) TotalRows() uint64 { return s.totalRows }

// splitmix64 is the value-generation hash (Vigna's SplitMix64 finalizer).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Element returns element e of the vector at global row idx. Values lie in
// [-8, 8); sums of thousands of them remain exactly representable in float32.
func (s *Store) Element(idx header.Index, e int) float32 {
	h := splitmix64(s.seed ^ uint64(idx)*0x100000001b3 ^ uint64(e))
	return float32(int64(h%17)) - 8
}

// fill materializes the vector at idx into dst, hoisting the per-row hash
// base out of the element loop (bit-identical to Element per element).
func (s *Store) fill(idx header.Index, dst tensor.Vector) {
	base := s.seed ^ uint64(idx)*0x100000001b3
	for e := range dst {
		h := splitmix64(base ^ uint64(e))
		dst[e] = float32(int64(h%17)) - 8
	}
}

// Vector materializes the embedding vector at global row idx. It returns an
// error for an out-of-range index.
func (s *Store) Vector(idx header.Index) (tensor.Vector, error) {
	if uint64(idx) >= s.totalRows {
		return nil, fmt.Errorf("embedding: index %d out of range [0,%d)", idx, s.totalRows)
	}
	v := tensor.New(s.dim)
	s.fill(idx, v)
	return v, nil
}

// VectorInto materializes the embedding vector at global row idx into dst,
// which must have the store's dimension. It is Vector without the
// allocation, for callers that manage their own buffers (the engines' leaf
// staging arenas).
func (s *Store) VectorInto(idx header.Index, dst tensor.Vector) error {
	if uint64(idx) >= s.totalRows {
		return fmt.Errorf("embedding: index %d out of range [0,%d)", idx, s.totalRows)
	}
	if len(dst) != s.dim {
		return fmt.Errorf("embedding: VectorInto buffer has %d elements, store dimension is %d", len(dst), s.dim)
	}
	s.fill(idx, dst)
	return nil
}

// MustVector is Vector for callers with statically valid indices (tests,
// examples); it panics on error.
func (s *Store) MustVector(idx header.Index) tensor.Vector {
	v, err := s.Vector(idx)
	if err != nil {
		panic(err)
	}
	return v
}

// Query is one embedding lookup: a set of indices whose vectors are gathered
// and reduced into a single output vector.
type Query struct {
	Indices header.IndexSet
}

// Batch is a set of queries processed together, with the pooling operation to
// apply.
type Batch struct {
	Queries []Query
	Op      tensor.ReduceOp
}

// NumQueries reports the batch size n.
func (b Batch) NumQueries() int { return len(b.Queries) }

// MaxQuerySize reports the largest query (q in the paper's notation).
func (b Batch) MaxQuerySize() int {
	max := 0
	for _, q := range b.Queries {
		if q.Indices.Len() > max {
			max = q.Indices.Len()
		}
	}
	return max
}

// TotalAccesses reports the number of memory accesses a batch needs without
// deduplication: the sum of all query sizes (n x q for uniform queries).
func (b Batch) TotalAccesses() int {
	n := 0
	for _, q := range b.Queries {
		n += q.Indices.Len()
	}
	return n
}

// UniqueIndices returns the distinct indices across the batch, sorted.
func (b Batch) UniqueIndices() header.IndexSet {
	var all []header.Index
	for _, q := range b.Queries {
		all = append(all, q.Indices...)
	}
	return header.NewIndexSet(all...)
}

// UniqueFraction reports the Fig. 3 statistic: the fraction of the batch's
// memory accesses that remain after deduplication.
func (b Batch) UniqueFraction() float64 {
	total := b.TotalAccesses()
	if total == 0 {
		return 0
	}
	return float64(b.UniqueIndices().Len()) / float64(total)
}

// goldenChunkRows is how many unique rows Golden materializes per allocation.
const goldenChunkRows = 64

// Golden computes the reference result of the batch against the store: one
// reduced vector per query, in query order. Every engine's functional output
// is compared against this. It returns an error when a query references an
// index outside the store or the pooling operation is unusable.
func (b Batch) Golden(s *Store) ([]tensor.Vector, error) {
	out := make([]tensor.Vector, len(b.Queries))
	// Batches share indices heavily (that sharing is the whole premise of the
	// paper), so each unique index is materialized once and reused; only the
	// per-query accumulators escape. Rows are carved out of fixed-size chunks
	// that are never regrown — one growing buffer would copy every row
	// already materialized on each growth — and the memo holds the row's
	// slice. Values are deterministic, so memoization cannot change any
	// result.
	dim, total := s.Dim(), b.TotalAccesses()
	chunkLen := min(goldenChunkRows, total) * dim
	var chunk []float32
	memo := make(map[header.Index]tensor.Vector, total)
	vecOf := func(idx header.Index) (tensor.Vector, error) {
		if uint64(idx) >= s.totalRows {
			return nil, fmt.Errorf("embedding: index %d out of range [0,%d)", idx, s.totalRows)
		}
		v, ok := memo[idx]
		if !ok {
			if len(chunk) < dim {
				chunk = make([]float32, chunkLen)
			}
			v, chunk = chunk[:dim:dim], chunk[dim:]
			s.fill(idx, v)
			memo[idx] = v
		}
		return v, nil
	}
	for i, q := range b.Queries {
		out[i] = tensor.New(dim)
		if err := q.Fold(b.Op, out[i], vecOf); err != nil {
			return nil, fmt.Errorf("embedding: golden of query %d: %w", i, err)
		}
	}
	return out, nil
}

// Fold reduces the query's rows into acc with op, reading each row by its
// global index through row, and finalizes a mean by the query's size: the
// reference reduction every engine output is checked against. Golden feeds it
// rows from the store; the Fafnir engine, the rows its leaf reads staged. acc
// must have the rows' dimension; its prior contents are ignored, and an empty
// query leaves it zero.
func (q Query) Fold(op tensor.ReduceOp, acc tensor.Vector, row func(header.Index) (tensor.Vector, error)) error {
	clear(acc)
	for i, idx := range q.Indices {
		v, err := row(idx)
		if err != nil {
			return err
		}
		if i == 0 {
			copy(acc, v)
		} else if err := op.Apply(acc, v); err != nil {
			return err
		}
	}
	op.FinalizeMean(acc, q.Indices.Len())
	return nil
}

// MustGolden is Golden for callers with statically valid batches (tests,
// examples); it panics on error.
func (b Batch) MustGolden(s *Store) []tensor.Vector {
	out, err := b.Golden(s)
	if err != nil {
		panic(err)
	}
	return out
}

// Distribution selects how query indices are drawn from the row space.
type Distribution uint8

const (
	// Uniform draws rows uniformly at random.
	Uniform Distribution = iota
	// Zipf draws rows with Zipfian popularity, modelling the hot-entry skew
	// of production embedding traces that makes batches share indices.
	Zipf
)

// String returns the distribution name.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	default:
		return fmt.Sprintf("Distribution(%d)", uint8(d))
	}
}

// GeneratorConfig parameterizes a query generator.
type GeneratorConfig struct {
	// NumQueries is the batch size n.
	NumQueries int
	// QuerySize is the number of indices per query (q, max 16 in the paper).
	QuerySize int
	// Rows is the size of the index space queries draw from.
	Rows uint64
	// Dist selects the popularity distribution.
	Dist Distribution
	// ZipfS is the Zipf skew parameter (>1); ignored for Uniform.
	ZipfS float64
	// Seed makes generation deterministic.
	Seed int64
	// PerTableRows, when positive, switches to DLRM-style per-table
	// pooling: each query first picks one table (of Rows/PerTableRows
	// tables, uniformly) and then draws its QuerySize indices inside that
	// table with the configured distribution over the table's rows. This
	// matches production embedding semantics where one sparse feature pools
	// within one table.
	PerTableRows uint64
}

// Validate reports a descriptive error for an unusable configuration.
func (c GeneratorConfig) Validate() error {
	switch {
	case c.NumQueries <= 0:
		return fmt.Errorf("embedding: NumQueries must be positive, got %d", c.NumQueries)
	case c.QuerySize <= 0:
		return fmt.Errorf("embedding: QuerySize must be positive, got %d", c.QuerySize)
	case c.Rows == 0:
		return fmt.Errorf("embedding: Rows must be positive")
	case uint64(c.QuerySize) > c.Rows:
		return fmt.Errorf("embedding: QuerySize %d exceeds row space %d", c.QuerySize, c.Rows)
	case c.Dist == Zipf && c.ZipfS <= 1:
		return fmt.Errorf("embedding: ZipfS must exceed 1, got %v", c.ZipfS)
	case c.PerTableRows > 0 && c.Rows%c.PerTableRows != 0:
		return fmt.Errorf("embedding: Rows %d not a multiple of PerTableRows %d", c.Rows, c.PerTableRows)
	case c.PerTableRows > 0 && uint64(c.QuerySize) > c.PerTableRows:
		return fmt.Errorf("embedding: QuerySize %d exceeds table rows %d", c.QuerySize, c.PerTableRows)
	}
	return nil
}

// Generator produces deterministic batches of queries.
type Generator struct {
	cfg  GeneratorConfig
	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewGenerator builds a generator; it returns an error for invalid
// configurations.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	rowSpace := cfg.Rows
	if cfg.PerTableRows > 0 {
		rowSpace = cfg.PerTableRows
	}
	if cfg.Dist == Zipf {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, rowSpace-1)
	}
	return g, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() GeneratorConfig { return g.cfg }

// drawRow samples one row according to the configured distribution, within
// the given row space.
func (g *Generator) drawRow(space uint64) header.Index {
	switch g.cfg.Dist {
	case Zipf:
		return header.Index(g.zipf.Uint64())
	default:
		return header.Index(g.rng.Int63n(int64(space)))
	}
}

// Query draws one query of QuerySize distinct indices. In per-table mode
// the indices stay inside one uniformly chosen table.
func (g *Generator) Query() Query {
	space := g.cfg.Rows
	var base uint64
	if g.cfg.PerTableRows > 0 {
		space = g.cfg.PerTableRows
		tables := g.cfg.Rows / g.cfg.PerTableRows
		base = uint64(g.rng.Int63n(int64(tables))) * g.cfg.PerTableRows
	}
	// Queries are small (q <= 16 in the paper), so a linear duplicate scan
	// beats a per-query map; the draw sequence — and hence the generated
	// batch — is unchanged.
	idx := make(header.IndexSet, 0, g.cfg.QuerySize)
draw:
	for len(idx) < g.cfg.QuerySize {
		r := header.Index(base) + g.drawRow(space)
		for _, x := range idx {
			if x == r {
				continue draw
			}
		}
		idx = append(idx, r)
	}
	slices.Sort(idx)
	return Query{Indices: idx}
}

// Batch draws a full batch with the given pooling operation.
func (g *Generator) Batch(op tensor.ReduceOp) Batch {
	b := Batch{Queries: make([]Query, g.cfg.NumQueries), Op: op}
	for i := range b.Queries {
		b.Queries[i] = g.Query()
	}
	return b
}
