// Package trace is the repository's one replayable workload format: a JSONL
// stream of embedding-lookup requests, one per line, each with its arrival
// offset, pooling op, indices, QoS lane and deadline. fafnir-loadgen writes
// it with -record and re-offers it with -replay; fafnir-trace gen writes the
// same file and stats/run read it, treating the stream as one batch (a batch
// is a stream whose requests all arrive at 0). The paper's experiments use
// production traces; any tool that can emit these lines can drive every
// engine and the serving tier.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// Request is one workload request: when it was offered (microseconds after
// the run began), what it asked for, and which lane and deadline it carried.
type Request struct {
	TUS       int64    `json:"t_us"`
	Op        string   `json:"op,omitempty"`
	Indices   []uint64 `json:"indices"`
	Lane      string   `json:"lane,omitempty"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
}

// validate reports what a server would answer with a 400, before any request
// is sent.
func (r *Request) validate() error {
	if len(r.Indices) == 0 {
		return fmt.Errorf("request carries no indices")
	}
	if r.TUS < 0 || r.TimeoutMS < 0 {
		return fmt.Errorf("negative t_us %d or timeout_ms %d", r.TUS, r.TimeoutMS)
	}
	switch r.Lane {
	case "", "high", "normal", "low":
	default:
		return fmt.Errorf("unknown lane %q (want high, normal, or low)", r.Lane)
	}
	_, err := tensor.ParseOp(r.Op)
	return err
}

// Workload is a request stream ordered by arrival offset.
type Workload []Request

// validate refuses an empty stream and names the first bad request.
func (w Workload) validate() error {
	if len(w) == 0 {
		return fmt.Errorf("trace: empty workload")
	}
	for i := range w {
		if err := w[i].validate(); err != nil {
			return fmt.Errorf("trace: request %d: %w", i, err)
		}
	}
	return nil
}

// FromBatch captures a batch as a stream whose requests all arrive at 0.
func FromBatch(b embedding.Batch) Workload {
	w := make(Workload, len(b.Queries))
	for i, q := range b.Queries {
		w[i] = Request{Op: b.Op.String(), Indices: make([]uint64, len(q.Indices))}
		for j, idx := range q.Indices {
			w[i].Indices[j] = uint64(idx)
		}
	}
	return w
}

// Batch gathers the stream into one runnable batch, one query per request,
// and reports the row space it needs: a stream has no header, so that is
// one past its largest index. Duplicate indices within a request coalesce
// (queries are sets, as in the paper's terminology). A batch has one pooling
// op, so a stream that mixes them is an error.
func (w Workload) Batch() (b embedding.Batch, rows uint64, err error) {
	if err := w.validate(); err != nil {
		return b, 0, err
	}
	for i := range w {
		op, _ := tensor.ParseOp(w[i].Op)
		if i > 0 && op != b.Op {
			return b, 0, fmt.Errorf("trace: request %d pools with %v, the ones before with %v: a batch has one op", i, op, b.Op)
		}
		b.Op = op
		set := make([]header.Index, len(w[i].Indices))
		for j, idx := range w[i].Indices {
			if idx > math.MaxUint32 {
				return b, 0, fmt.Errorf("trace: request %d index %d outside the 32-bit row space", i, idx)
			}
			set[j] = header.Index(idx)
			rows = max(rows, idx+1)
		}
		b.Queries = append(b.Queries, embedding.Query{Indices: header.NewIndexSet(set...)})
	}
	return b, rows, nil
}

// Stats summarizes a workload.
type Stats struct {
	Op             tensor.ReduceOp
	NumQueries     int
	TotalAccesses  int
	UniqueIndices  int
	UniqueFraction float64
	MaxQuerySize   int
}

// Stats computes the workload's access statistics (the Fig. 3 quantities).
func (w Workload) Stats() (Stats, error) {
	b, _, err := w.Batch()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Op:             b.Op,
		NumQueries:     b.NumQueries(),
		TotalAccesses:  b.TotalAccesses(),
		UniqueIndices:  b.UniqueIndices().Len(),
		UniqueFraction: b.UniqueFraction(),
		MaxQuerySize:   b.MaxQuerySize(),
	}, nil
}

// Save writes the workload as JSONL, sorted by arrival offset (stably: w is
// reordered in place), after validating every request.
func Save(out io.Writer, w Workload) error {
	if err := w.validate(); err != nil {
		return err
	}
	sort.SliceStable(w, func(i, j int) bool { return w[i].TUS < w[j].TUS })
	buf := bufio.NewWriter(out)
	enc := json.NewEncoder(buf)
	for i := range w {
		if err := enc.Encode(&w[i]); err != nil {
			return err
		}
	}
	return buf.Flush()
}

// SaveFile writes the workload to a new file at path.
func SaveFile(path string, w Workload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, w); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a workload, sorted by arrival offset. Every line is exactly one
// JSON object with known fields and valid values; name prefixes the
// name:line: of each error.
func Load(name string, in io.Reader) (Workload, error) {
	var w Workload
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r Request
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		err := dec.Decode(&r)
		if err == nil {
			if _, end := dec.Token(); end != io.EOF {
				err = fmt.Errorf("trailing data after the request object")
			} else {
				err = r.validate()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, line, err)
		}
		w = append(w, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(w) == 0 {
		return nil, fmt.Errorf("%s: empty workload", name)
	}
	sort.SliceStable(w, func(i, j int) bool { return w[i].TUS < w[j].TUS })
	return w, nil
}

// LoadFile reads the workload at path.
func LoadFile(path string) (Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(path, f)
}
