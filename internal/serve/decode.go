package serve

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"fafnir/internal/embedding"
	"fafnir/internal/header"
)

// lookupDecoder parses a POST /v1/lookup body by hand, into the numbers and
// names a LookupRequest would hold, without reflection. It accepts exactly
// the bodies a json.Decoder with DisallowUnknownFields, followed by a check
// for trailing data, accepts into a LookupRequest, and yields the same
// request; FuzzLookupDecode holds it to that reference. The rules it keeps:
//
//   - a key names a field exactly or under encoding/json's folding: ASCII
//     case, plus the non-ASCII runes that fold to a field's letter (ſ for s);
//     any other key, and a duplicate's later value, is handled as the
//     reference does: an unknown key is refused, a duplicate overwrites;
//   - null leaves op, priority and timeout_ms as they were and drops an
//     integer list; null as a list element leaves the element's previous
//     value, which for a list decoded before under a duplicate key is that
//     list's element, else zero (intList);
//   - an element or timeout_ms is an integer in JSON's grammar (no fraction,
//     exponent or leading zero) within uint64 or int64; anything else in a
//     field, and any syntax error, is refused;
//   - only whitespace may follow the object.
//
// Anything a reference decode would refuse is refused as soon as it is seen;
// which error is reported may differ, but every error names the body as
// bad, and an unknown field's error names the field.
type lookupDecoder struct {
	buf []byte // the body
	pos int    // read position in buf
	// op, priority and timeout are the last non-null values of their fields.
	op, priority []byte
	timeout      int64
	indices      intList
	// queries holds one intList per element position the queries field
	// has held since it was last dropped; nQueries is the last array's
	// length.
	queries  []intList
	nQueries int
	// text backs the strings that needed unescaping.
	text []byte
}

// intList is one integer list as encoding/json decodes it into a reused
// slice: vals keeps every element position written since the list was last
// dropped (by null or []), since a later array with null at that position
// keeps the value there, and n is the length of the last array.
type intList struct {
	vals []uint64
	n    int
}

func (l *intList) drop() { l.vals, l.n = l.vals[:0], 0 }

// at extends vals with zeros to cover element i and returns its cell.
func (l *intList) at(i int) *uint64 {
	for len(l.vals) <= i {
		l.vals = append(l.vals, 0)
	}
	return &l.vals[i]
}

// maxPooledBody bounds the body buffer a pooled decoder keeps.
const maxPooledBody = 64 << 10

var decoderPool = sync.Pool{New: func() any { return new(lookupDecoder) }}

func putDecoder(d *lookupDecoder) {
	if cap(d.buf) <= maxPooledBody {
		decoderPool.Put(d)
	}
}

// reset readies d for a new body.
func (d *lookupDecoder) reset() {
	d.buf, d.pos = d.buf[:0], 0
	d.op, d.priority, d.timeout = nil, nil, 0
	d.indices.drop()
	d.queries, d.nQueries = d.queries[:0], 0
	d.text = d.text[:0]
}

// badBody is every parse error: the body is the caller's fault.
func badBody(format string, args ...any) error {
	return fmt.Errorf("serve: bad request body: "+format, args...)
}

// read loads the body into buf, refusing one larger than maxBodyBytes.
func (d *lookupDecoder) read(r io.Reader) error {
	for {
		if len(d.buf) == cap(d.buf) {
			d.buf = slices.Grow(d.buf, 512)
		}
		n, err := r.Read(d.buf[len(d.buf):min(cap(d.buf), maxBodyBytes+1)])
		d.buf = d.buf[:len(d.buf)+n]
		switch {
		case len(d.buf) > maxBodyBytes:
			return badBody("body exceeds %d bytes", maxBodyBytes)
		case err == io.EOF:
			return nil
		case err != nil:
			return badBody("%v", err)
		}
	}
}

// The LookupRequest fields, by wire name.
const (
	fieldIndices = iota
	fieldQueries
	fieldOp
	fieldPriority
	fieldTimeout
	numFields
)

var fieldNames = [numFields]string{"indices", "queries", "op", "priority", "timeout_ms"}

// fieldOf returns the field key names, or -1.
func fieldOf(key []byte) int {
	for f, name := range fieldNames {
		if string(key) == name {
			return f
		}
	}
	for f, name := range fieldNames {
		if foldEqual(key, name) {
			return f
		}
	}
	return -1
}

// foldEqual reports whether key matches the lower-case ASCII name as
// encoding/json matches a key to a field: an ASCII byte in either case, a
// multi-byte rune when it folds (unicode.SimpleFold) to the name's letter.
func foldEqual(key []byte, name string) bool {
	i := 0
	for j := 0; j < len(name); j++ {
		if i == len(key) {
			return false
		}
		want := name[j]
		if 'a' <= want && want <= 'z' {
			want -= 'a' - 'A'
		}
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != want {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		if foldRune(r) != rune(want) {
			return false
		}
		i += n
	}
	return i == len(key)
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// space skips JSON whitespace.
func (d *lookupDecoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the body.
func (d *lookupDecoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// unexpected is the error for the byte at pos, read where want was due.
func (d *lookupDecoder) unexpected(want string) error {
	if d.pos == len(d.buf) {
		return badBody("unexpected end of body, want %s", want)
	}
	return badBody("invalid character %q at offset %d, want %s", d.buf[d.pos], d.pos, want)
}

// null consumes a null literal if one is next.
func (d *lookupDecoder) null() bool {
	if len(d.buf)-d.pos >= 4 && string(d.buf[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// parse reads the body's one object into d's fields, then requires that
// only whitespace follows.
func (d *lookupDecoder) parse() error {
	d.space()
	if d.peek() != '{' {
		return d.unexpected("the request object")
	}
	d.pos++
	d.space()
	if d.peek() == '}' {
		d.pos++
	} else {
		for {
			if d.peek() != '"' {
				return d.unexpected("a field name")
			}
			key, err := d.str()
			if err != nil {
				return err
			}
			f := fieldOf(key)
			if f < 0 {
				return badBody("json: unknown field %q", key)
			}
			d.space()
			if d.peek() != ':' {
				return d.unexpected("':'")
			}
			d.pos++
			d.space()
			if err := d.value(f); err != nil {
				return err
			}
			d.space()
			if c := d.peek(); c == '}' {
				d.pos++
				break
			} else if c != ',' {
				return d.unexpected("',' or '}'")
			}
			d.pos++
			d.space()
		}
	}
	d.space()
	if d.pos != len(d.buf) {
		return badBody("trailing data after the request object")
	}
	return nil
}

// value reads field f's value.
func (d *lookupDecoder) value(f int) error {
	switch f {
	case fieldIndices:
		return d.list(&d.indices, "indices")
	case fieldQueries:
		return d.lists()
	case fieldOp:
		return d.name(&d.op, "op")
	case fieldPriority:
		return d.name(&d.priority, "priority")
	default:
		return d.int(&d.timeout, "timeout_ms")
	}
}

// int reads an int64 field, or leaves *dst on null.
func (d *lookupDecoder) int(dst *int64, field string) error {
	if d.null() {
		return nil
	}
	neg := d.peek() == '-'
	if neg {
		d.pos++
	}
	// -2^63 fits an int64 and 2^63 does not.
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	n, ok := d.uint(limit)
	if !ok {
		return badBody("%s is not an integer in int64 range", field)
	}
	*dst = int64(n)
	if neg {
		*dst = -*dst
	}
	return nil
}

// name reads a string field, or leaves *dst on null.
func (d *lookupDecoder) name(dst *[]byte, field string) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return badBody("%s is not a string", field)
	}
	s, err := d.str()
	*dst = s
	return err
}

// uint reads an integer in JSON's grammar no greater than limit: no sign,
// no leading zero; a fraction or exponent after it fails at the caller's
// next delimiter.
func (d *lookupDecoder) uint(limit uint64) (uint64, bool) {
	c := d.peek()
	if c < '0' || c > '9' {
		return 0, false
	}
	d.pos++
	n := uint64(c - '0')
	if n == 0 {
		return 0, true
	}
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		if c < '0' || c > '9' {
			break
		}
		digit := uint64(c - '0')
		if n > (limit-digit)/10 {
			return 0, false
		}
		n = n*10 + digit
		d.pos++
	}
	return n, true
}

// list reads an integer list into l as encoding/json decodes an array into
// a reused slice.
func (d *lookupDecoder) list(l *intList, field string) error {
	if d.null() {
		l.drop()
		return nil
	}
	if d.peek() != '[' {
		return badBody("%s is not a list of row indices", field)
	}
	d.pos++
	d.space()
	if d.peek() == ']' {
		d.pos++
		l.drop()
		return nil
	}
	for i := 0; ; i++ {
		if !d.null() {
			n, ok := d.uint(math.MaxUint64)
			if !ok {
				return badBody("%s holds something other than a row index in uint64 range", field)
			}
			*l.at(i) = n
		} else {
			l.at(i)
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case ']':
			d.pos++
			l.n = i + 1
			return nil
		default:
			return d.unexpected("',' or ']'")
		}
	}
}

// lists reads the queries field: a list of integer lists, each element
// position reusing the list it held before.
func (d *lookupDecoder) lists() error {
	if d.null() {
		d.queries, d.nQueries = d.queries[:0], 0
		return nil
	}
	if d.peek() != '[' {
		return badBody("queries is not a list of queries")
	}
	d.pos++
	d.space()
	if d.peek() == ']' {
		d.pos++
		d.queries, d.nQueries = d.queries[:0], 0
		return nil
	}
	for i := 0; ; i++ {
		if i == len(d.queries) {
			// A position first reached since the field was last dropped
			// holds a fresh list; the pooled one it recycles is emptied.
			d.queries = slices.Grow(d.queries, 1)[:i+1]
			d.queries[i].drop()
		}
		if err := d.list(&d.queries[i], "queries"); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case ']':
			d.pos++
			d.nQueries = i + 1
			return nil
		default:
			return d.unexpected("',' or ']'")
		}
	}
}

// str reads a JSON string. An escape-free string is a slice of the body;
// one with escapes is unescaped into text, lone surrogates becoming U+FFFD
// as encoding/json makes them.
func (d *lookupDecoder) str() ([]byte, error) {
	d.pos++ // the opening quote
	start := d.pos
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; {
		case c == '"':
			d.pos++
			return d.buf[start : d.pos-1], nil
		case c == '\\':
			return d.unescape(start)
		case c < ' ':
			return nil, d.unexpected("a string character")
		}
		d.pos++
	}
	return nil, d.unexpected("'\"'")
}

// unescape finishes a string whose first escape is at pos.
func (d *lookupDecoder) unescape(start int) ([]byte, error) {
	from := len(d.text)
	d.text = append(d.text, d.buf[start:d.pos]...)
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.text[from:len(d.text):len(d.text)], nil
		case c < ' ':
			return nil, d.unexpected("a string character")
		case c != '\\':
			d.text = append(d.text, c)
			d.pos++
			continue
		}
		d.pos++
		switch e := d.peek(); e {
		case '"', '\\', '/':
			d.text = append(d.text, e)
		case 'b':
			d.text = append(d.text, '\b')
		case 'f':
			d.text = append(d.text, '\f')
		case 'n':
			d.text = append(d.text, '\n')
		case 'r':
			d.text = append(d.text, '\r')
		case 't':
			d.text = append(d.text, '\t')
		case 'u':
			r, ok := d.hex4(d.pos + 1)
			if !ok {
				return nil, d.unexpected("four hex digits after \\u")
			}
			d.pos += 4 // on the escape's last digit
			if utf16.IsSurrogate(r) {
				// Only a high surrogate escaped right before a low one
				// makes a pair; else this escape alone is U+FFFD.
				pair := unicode.ReplacementChar
				if d.pos+2 < len(d.buf) && d.buf[d.pos+1] == '\\' && d.buf[d.pos+2] == 'u' {
					if lo, ok := d.hex4(d.pos + 3); ok {
						pair = utf16.DecodeRune(r, lo)
					}
				}
				if pair != unicode.ReplacementChar {
					d.pos += 6
				}
				r = pair
			}
			d.text = utf8.AppendRune(d.text, r)
		default:
			return nil, d.unexpected("an escape character")
		}
		d.pos++
	}
	return nil, d.unexpected("'\"'")
}

// hex4 decodes the four hex digits at i.
func (d *lookupDecoder) hex4(i int) (rune, bool) {
	if i+4 > len(d.buf) {
		return 0, false
	}
	var r rune
	for _, c := range d.buf[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// request validates the parsed fields as a LookupRequest is validated and
// builds the engine queries: one set per query, sorted and deduplicated,
// all carved from one allocation.
func (d *lookupDecoder) request(limit int, totalRows uint64) ([]embedding.Query, error) {
	lists := d.queries[:d.nQueries]
	switch {
	case d.indices.n > 0 && d.nQueries > 0:
		return nil, fmt.Errorf("serve: set either indices or queries, not both")
	case d.indices.n > 0:
		lists = []intList{d.indices}
	case d.nQueries == 0:
		return nil, fmt.Errorf("serve: request carries no queries")
	}
	if len(lists) > limit {
		return nil, fmt.Errorf("serve: request carries %d queries, limit is %d", len(lists), limit)
	}
	total := 0
	for _, l := range lists {
		total += l.n
	}
	flat := make([]header.Index, total)
	queries := make([]embedding.Query, len(lists))
	for qi, l := range lists {
		if l.n == 0 {
			return nil, fmt.Errorf("serve: query %d is empty", qi)
		}
		set := flat[:l.n:l.n]
		flat = flat[l.n:]
		for i, idx := range l.vals[:l.n] {
			if idx >= totalRows {
				return nil, fmt.Errorf("serve: query %d index %d out of range [0,%d)", qi, idx, totalRows)
			}
			set[i] = header.Index(idx)
		}
		slices.Sort(set)
		queries[qi] = embedding.Query{Indices: slices.Compact(header.IndexSet(set))}
	}
	return queries, nil
}
