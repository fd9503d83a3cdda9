package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// lookupDecoder decodes a POST /v1/lookup body at one of two speeds. The
// fast path (parse) takes the canonical body by hand, with no reflection:
//
//   - exact lower-case field names, each at most once, in any order, with
//     JSON whitespace anywhere, and only whitespace after the object;
//   - no null;
//   - strings of printable ASCII with no backslash;
//   - integers that are plain unsigned digits with no leading zero, within
//     uint64 for an index and int for timeout_ms.
//
// Every body the project's clients send is canonical
// (TestClientBodiesTakeFastPath). Any other body, whether it folds a key's
// case, repeats a key, holds null, an escape or a sign, or is no JSON at all,
// goes whole to the fallback, decodeReference. So every body is accepted,
// refused and decoded as encoding/json does; on the fallback by
// construction, and on the fast path as FuzzLookupDecode holds it. Both paths
// end in one validator, Server.validate.
type lookupDecoder struct {
	buf []byte // the body
	pos int    // read position in buf
	// req is the fast path's decode; its lists are reused by the next body.
	req LookupRequest
}

// maxPooledBody bounds the body buffer a pooled decoder keeps.
const maxPooledBody = 64 << 10

var decoderPool = sync.Pool{New: func() any { return new(lookupDecoder) }}

func putDecoder(d *lookupDecoder) {
	if cap(d.buf) <= maxPooledBody {
		decoderPool.Put(d)
	}
}

// badBody is every read and parse error: the body is the caller's fault.
func badBody(format string, args ...any) error {
	return fmt.Errorf("serve: bad request body: "+format, args...)
}

// decode reads body and decodes it, by hand when it is canonical and by the
// reference otherwise. A fast-path request is d's own, valid until d's next
// body. The handler bounds the body (http.MaxBytesReader).
func (d *lookupDecoder) decode(body io.Reader) (*LookupRequest, error) {
	b := bytes.NewBuffer(d.buf[:0])
	_, err := b.ReadFrom(body)
	if d.buf = b.Bytes(); err != nil {
		return nil, badBody("%v", err)
	}
	if d.parse() {
		return &d.req, nil
	}
	return decodeReference(d.buf)
}

// decodeReference is the fallback: a json.Decoder with unknown fields
// refused, then a check that only whitespace follows the object. It decodes
// into a fresh LookupRequest, never a reused one, because encoding/json keeps
// a slice element where it meets null.
func decodeReference(body []byte) (*LookupRequest, error) {
	req := new(LookupRequest)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, badBody("%w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, badBody("trailing data after the request object")
	}
	return req, nil
}

// fieldNames are LookupRequest's wire names; value switches on the index.
var fieldNames = [...]string{"indices", "queries", "op", "priority", "timeout_ms"}

// parse decodes a canonical body into d.req, and reports false at the
// body's first deviation from the canonical form.
func (d *lookupDecoder) parse() bool {
	d.pos = 0
	d.req = LookupRequest{Indices: d.req.Indices[:0], Queries: d.req.Queries[:0]}
	var seen [len(fieldNames)]bool
	ok := d.each('{', '}', func() bool {
		key, ok := d.str()
		f := slices.Index(fieldNames[:], string(key))
		if d.space(); !ok || f < 0 || seen[f] || !d.eat(':') {
			return false
		}
		seen[f] = true
		d.space()
		return d.value(f)
	})
	d.space()
	return ok && d.pos == len(d.buf)
}

// value reads the value of field f (a fieldNames index).
func (d *lookupDecoder) value(f int) (ok bool) {
	r := &d.req
	var s []byte
	var n uint64
	switch f {
	case 0:
		r.Indices, ok = d.list(r.Indices)
	case 1:
		ok = d.each('[', ']', func() bool {
			i := len(r.Queries)
			r.Queries = slices.Grow(r.Queries, 1)[:i+1]
			r.Queries[i], ok = d.list(r.Queries[i][:0])
			return ok
		})
	case 2:
		s, ok = d.str()
		r.Op = string(s)
	case 3:
		s, ok = d.str()
		r.Priority = string(s)
	default:
		n, ok = d.uint(math.MaxInt)
		r.TimeoutMS = int(n)
	}
	return ok
}

// each reads a sequence from open to close, its elements separated by
// commas, calling elem at the start of each element.
func (d *lookupDecoder) each(open, close byte, elem func() bool) bool {
	if d.space(); !d.eat(open) {
		return false
	}
	if d.space(); d.eat(close) {
		return true
	}
	for d.space(); elem(); d.space() {
		if d.space(); d.eat(close) {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
	return false
}

// list appends a list of row indices to dst.
func (d *lookupDecoder) list(dst []uint64) ([]uint64, bool) {
	ok := d.each('[', ']', func() bool {
		n, ok := d.uint(math.MaxUint64)
		dst = append(dst, n)
		return ok
	})
	return dst, ok
}

// uint reads plain unsigned digits with no leading zero, no greater than
// limit. A fraction or exponent after them fails at the caller's next
// delimiter.
func (d *lookupDecoder) uint(limit uint64) (uint64, bool) {
	buf, i := d.buf, d.pos
	var n uint64
	for ; i < len(buf) && '0' <= buf[i] && buf[i] <= '9'; i++ {
		hi, lo := bits.Mul64(n, 10)
		lo, carry := bits.Add64(lo, uint64(buf[i]-'0'), 0)
		if hi|carry != 0 || lo > limit {
			return 0, false
		}
		n = lo
	}
	digits := i - d.pos
	d.pos = i
	return n, digits == 1 || digits > 1 && buf[i-digits] != '0'
}

// str reads a string of printable ASCII with no backslash, as a slice of
// the body.
func (d *lookupDecoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.pos
	for ; d.pos < len(d.buf) && d.buf[d.pos] != '"'; d.pos++ {
		if c := d.buf[d.pos]; c < ' ' || c > '~' || c == '\\' {
			return nil, false
		}
	}
	s := d.buf[start:d.pos]
	return s, d.eat('"')
}

// eat consumes c if it is the next byte.
func (d *lookupDecoder) eat(c byte) bool {
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (d *lookupDecoder) space() {
	for d.pos < len(d.buf) && isSpace[d.buf[d.pos]] {
		d.pos++
	}
}

var isSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// validate turns a decoded body, from either path, into the coalescer
// request and its deadline budget; every error is the caller's fault. The
// queries are sorted, deduplicated sets, all carved from one allocation.
func (s *Server) validate(req *LookupRequest) (call Request, timeout time.Duration, err error) {
	if call.Op, err = tensor.ParseOp(req.Op); err != nil {
		return Request{}, 0, err
	}
	if call.Priority, err = ParsePriority(req.Priority); err != nil {
		return Request{}, 0, err
	}
	lists := req.Queries
	switch {
	case len(req.Indices) > 0 && len(lists) > 0:
		return Request{}, 0, fmt.Errorf("serve: set either indices or queries, not both")
	case len(req.Indices) > 0:
		lists = [][]uint64{req.Indices}
	case len(lists) == 0:
		return Request{}, 0, fmt.Errorf("serve: request carries no queries")
	}
	if limit := maxRequestBatches * s.cfg.BatchCapacity; len(lists) > limit {
		return Request{}, 0, fmt.Errorf("serve: request carries %d queries, limit is %d", len(lists), limit)
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	flat := make([]header.Index, total)
	call.Queries = make([]embedding.Query, len(lists))
	for qi, l := range lists {
		if len(l) == 0 {
			return Request{}, 0, fmt.Errorf("serve: query %d is empty", qi)
		}
		set := flat[:len(l):len(l)]
		flat = flat[len(l):]
		for i, idx := range l {
			if idx >= s.totalRows {
				return Request{}, 0, fmt.Errorf("serve: query %d index %d out of range [0,%d)", qi, idx, s.totalRows)
			}
			set[i] = header.Index(idx)
		}
		slices.Sort(set)
		call.Queries[qi] = embedding.Query{Indices: slices.Compact(header.IndexSet(set))}
	}
	if req.TimeoutMS < 0 || int64(req.TimeoutMS) > maxTimeoutMS {
		return Request{}, 0, fmt.Errorf("serve: timeout_ms %d out of range [0,%d]", req.TimeoutMS, maxTimeoutMS)
	}
	if req.TimeoutMS == 0 {
		return call, s.cfg.DefaultTimeout, nil
	}
	return call, time.Duration(req.TimeoutMS) * time.Millisecond, nil
}
