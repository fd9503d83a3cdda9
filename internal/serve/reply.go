package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"fafnir/internal/tensor"
)

// replyEncoder renders the 200 body of POST /v1/lookup into buf, byte for
// byte what json.NewEncoder(w).Encode(resp) writes, trailing newline
// included. The reduced vectors are appended by hand (appendFloat32): the
// reflection and shortest-float search encoding/json spends on each of
// them cost more host CPU than the lookup that produced them. Every other
// field goes through enc, so its wire bytes are encoding/json's own.
type replyEncoder struct {
	buf []byte
	enc *json.Encoder // appends to buf
	// batch is encoded from here rather than from the caller's response, so
	// that response does not escape to the heap.
	batch BatchInfo
}

// maxPooledReply bounds the buffer a pooled encoder keeps: a ?debug=trace
// reply can run to hundreds of KB, and one must not pin that much forever.
const maxPooledReply = 64 << 10

var replyPool = sync.Pool{New: func() any { return newReplyEncoder() }}

func newReplyEncoder() *replyEncoder {
	e := &replyEncoder{}
	e.enc = json.NewEncoder(e)
	return e
}

func putReplyEncoder(e *replyEncoder) {
	if cap(e.buf) <= maxPooledReply {
		replyPool.Put(e)
	}
}

// Write is enc's sink: it appends to buf.
func (e *replyEncoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// encode renders resp into e.buf. It fails, leaving e.buf unspecified, when
// an output is NaN or infinite, which JSON cannot carry.
func (e *replyEncoder) encode(resp *LookupResponse) error {
	e.buf = append(e.buf[:0], `{"outputs":`...)
	if err := e.appendOutputs(resp.Outputs); err != nil {
		return err
	}
	e.batch = resp.Batch
	if err := e.field(`,"batch":`, &e.batch); err != nil {
		return err
	}
	if resp.Degraded != nil {
		if err := e.field(`,"degraded":`, resp.Degraded); err != nil {
			return err
		}
	}
	if len(resp.Trace) > 0 {
		if err := e.field(`,"trace":`, resp.Trace); err != nil {
			return err
		}
	}
	if resp.Breakdown != nil {
		if err := e.field(`,"breakdown":`, resp.Breakdown); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, "}\n"...)
	return nil
}

// field appends one object member, its value rendered by encoding/json.
func (e *replyEncoder) field(key string, v any) error {
	e.buf = append(e.buf, key...)
	if err := e.enc.Encode(v); err != nil {
		return fmt.Errorf("serve: encode reply: %w", err)
	}
	e.buf = e.buf[:len(e.buf)-1] // Encode ends every value with '\n'
	return nil
}

func (e *replyEncoder) appendOutputs(outs []tensor.Vector) error {
	if outs == nil {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	b := append(e.buf, '[')
	for qi, v := range outs {
		if qi > 0 {
			b = append(b, ',')
		}
		if v == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for i, f := range v {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendFloat32(b, f); !ok {
				return fmt.Errorf("serve: encode reply: output %d element %d is %v, which JSON cannot carry", qi, i, f)
			}
		}
		b = append(b, ']')
	}
	e.buf = append(b, ']')
	return nil
}

// appendFloat32 appends f as encoding/json renders a float32: the shortest
// decimal that round-trips, in 'f' format, or in 'e' format with the
// exponent's leading zero dropped below 1e-6 and at or above 1e21. An
// integer-valued f below 2^24 in magnitude (every sum, min and max over an
// integer-valued store) is exactly its integer, so it skips the
// shortest-float search; -0 keeps encoding/json's "-0". ok is false for NaN
// and ±Inf.
func appendFloat32(b []byte, f float32) (_ []byte, ok bool) {
	f64 := float64(f)
	if math.Abs(f64) < 1<<24 {
		if i := int32(f); float32(i) == f && (i != 0 || !math.Signbit(f64)) {
			// strconv's table of small numbers serves only non-negative
			// ones, and about half of a reply's elements are negative:
			// write the sign, then the magnitude.
			if i < 0 {
				b, i = append(b, '-'), -i
			}
			return strconv.AppendUint(b, uint64(i), 10), true
		}
	}
	if math.IsInf(f64, 0) || math.IsNaN(f64) {
		return b, false
	}
	format := byte('f')
	if abs := float32(math.Abs(f64)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f64, format, -1, 32)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}
