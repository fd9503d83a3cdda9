// Package tensor provides the dense-vector math used throughout the
// simulator: embedding vectors are FP32 vectors that support the element-wise
// reduction operations a Fafnir PE can apply (sum, min, max, mean).
//
// Vectors are plain []float32 slices wrapped in a named type so reduction
// kernels and dimension checks live in one place. All operations are
// deterministic and allocation behaviour is documented per function, because
// the timing engines run millions of reductions per simulated batch.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a dense FP32 embedding vector.
type Vector []float32

// ErrDimMismatch is returned when two vectors of different lengths are
// combined.
var ErrDimMismatch = errors.New("tensor: dimension mismatch")

// New returns a zero vector of dimension dim.
func New(dim int) Vector {
	if dim < 0 {
		panic("tensor: negative dimension")
	}
	return make(Vector, dim)
}

// Dim reports the number of elements in v.
func (v Vector) Dim() int { return len(v) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Equal reports whether v and w have identical dimension and elements.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// Dot returns the inner product of v and w.
func Dot(v, w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrDimMismatch, len(v), len(w))
	}
	var acc float64
	for i := range v {
		acc += float64(v[i]) * float64(w[i])
	}
	return acc, nil
}

// ReduceOp identifies an element-wise reduction operation supported by a
// Fafnir PE. The paper lists summation, minimum, and average as the typical
// pooling operations for embedding lookup.
type ReduceOp uint8

const (
	// OpSum is element-wise summation (the default pooling operation).
	OpSum ReduceOp = iota
	// OpMin is element-wise minimum.
	OpMin
	// OpMax is element-wise maximum.
	OpMax
	// OpMean is element-wise arithmetic mean. Because a PE reduces two
	// operands at a time, mean pooling is implemented as a sum through the
	// tree followed by a final scale at the root; Apply on OpMean therefore
	// behaves like OpSum, and FinalizeMean performs the division.
	OpMean
)

// String returns the operation name.
func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpMean:
		return "mean"
	default:
		return fmt.Sprintf("ReduceOp(%d)", uint8(op))
	}
}

// ParseOp inverts String: it maps a wire-format pooling-operation name to its
// ReduceOp. The empty string selects sum, the paper's default.
func ParseOp(s string) (ReduceOp, error) {
	switch s {
	case "", "sum":
		return OpSum, nil
	case "min":
		return OpMin, nil
	case "max":
		return OpMax, nil
	case "mean":
		return OpMean, nil
	default:
		return 0, fmt.Errorf("tensor: unknown pooling op %q (want sum, min, max, or mean)", s)
	}
}

// Valid reports whether op is a defined reduction operation.
func (op ReduceOp) Valid() bool { return op <= OpMean }

// Apply combines w into v in place according to op: ApplyTo(v, v, w).
// OpMean accumulates like OpSum; call FinalizeMean with the operand count once
// the reduction tree has fully combined a query.
func (op ReduceOp) Apply(v, w Vector) error { return op.ApplyTo(v, v, w) }

// ApplyTo writes the element-wise reduction of v and w under op into dst:
// dst[i] = v[i] + w[i] for sum and mean, and for min (max) w[i] where it is
// below (above) v[i], else v[i] — so a NaN in w never wins and a NaN in v
// stays. dst may be v or w itself (the three must not overlap otherwise),
// and all three must have one dimension.
//
// It is the one element kernel of every reducer. Sum and mean run add;
// min and max run eight elements per iteration over re-sliced operands, so
// the loop body carries no bounds checks, then a scalar tail.
func (op ReduceOp) ApplyTo(dst, v, w Vector) error {
	n := len(dst)
	if len(v) != n || len(w) != n {
		return fmt.Errorf("%w: %d, %d and %d", ErrDimMismatch, n, len(v), len(w))
	}
	switch op {
	case OpSum, OpMean:
		add(dst, v, w)
	case OpMin:
		for len(dst) >= 8 && len(v) >= 8 && len(w) >= 8 {
			dst[0] = lower(v[0], w[0])
			dst[1] = lower(v[1], w[1])
			dst[2] = lower(v[2], w[2])
			dst[3] = lower(v[3], w[3])
			dst[4] = lower(v[4], w[4])
			dst[5] = lower(v[5], w[5])
			dst[6] = lower(v[6], w[6])
			dst[7] = lower(v[7], w[7])
			dst, v, w = dst[8:], v[8:], w[8:]
		}
		v, w = v[:len(dst)], w[:len(dst)]
		for i := range dst {
			dst[i] = lower(v[i], w[i])
		}
	case OpMax:
		for len(dst) >= 8 && len(v) >= 8 && len(w) >= 8 {
			dst[0] = higher(v[0], w[0])
			dst[1] = higher(v[1], w[1])
			dst[2] = higher(v[2], w[2])
			dst[3] = higher(v[3], w[3])
			dst[4] = higher(v[4], w[4])
			dst[5] = higher(v[5], w[5])
			dst[6] = higher(v[6], w[6])
			dst[7] = higher(v[7], w[7])
			dst, v, w = dst[8:], v[8:], w[8:]
		}
		v, w = v[:len(dst)], w[:len(dst)]
		for i := range dst {
			dst[i] = higher(v[i], w[i])
		}
	default:
		return fmt.Errorf("tensor: unknown reduce op %d", op)
	}
	return nil
}

// add is the sum kernel, chosen once at package init: addAsm where the CPU
// runs AVX-512 (haveAVX512), addGo everywhere else.
func add(dst, v, w Vector) {
	if haveAVX512 {
		addAsm(dst, v, w)
		return
	}
	addGo(dst, v, w)
}

// addAsm adds the leading multiple of 16 elements with addAVX512, one
// 16-float VADDPS per block, and the rest with addGo.
func addAsm(dst, v, w Vector) {
	n := len(dst) &^ 15
	addAVX512(dst[:n], v[:n], w[:n])
	addGo(dst[n:], v[n:], w[n:])
}

// addGo is the portable sum kernel and addAsm's referee: eight elements per
// iteration, then a scalar tail. v and w have dst's length.
func addGo(dst, v, w Vector) {
	for len(dst) >= 8 && len(v) >= 8 && len(w) >= 8 {
		dst[0] = v[0] + w[0]
		dst[1] = v[1] + w[1]
		dst[2] = v[2] + w[2]
		dst[3] = v[3] + w[3]
		dst[4] = v[4] + w[4]
		dst[5] = v[5] + w[5]
		dst[6] = v[6] + w[6]
		dst[7] = v[7] + w[7]
		dst, v, w = dst[8:], v[8:], w[8:]
	}
	v, w = v[:len(dst)], w[:len(dst)]
	for i := range dst {
		dst[i] = v[i] + w[i]
	}
}

// lower is min's element rule: w only where it compares below v. Unlike the
// builtin min it keeps v for a NaN w and for -0 against +0.
func lower(v, w float32) float32 {
	if w < v {
		return w
	}
	return v
}

// higher is max's element rule, lower's mirror.
func higher(v, w float32) float32 {
	if w > v {
		return w
	}
	return v
}

// FinalizeMean divides v by n when op is OpMean; it is a no-op for other
// operations. n must be positive.
func (op ReduceOp) FinalizeMean(v Vector, n int) {
	if op != OpMean || n <= 0 {
		return
	}
	inv := 1 / float32(n)
	for i := range v {
		v[i] *= inv
	}
}

// Identity returns the neutral starting value for op at dimension dim:
// zeros for sum/mean, +Inf for min, -Inf for max.
func (op ReduceOp) Identity(dim int) Vector {
	v := New(dim)
	switch op {
	case OpMin:
		for i := range v {
			v[i] = float32(math.Inf(1))
		}
	case OpMax:
		for i := range v {
			v[i] = float32(math.Inf(-1))
		}
	}
	return v
}
