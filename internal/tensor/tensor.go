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

// ApproxEqual reports whether v and w have the same dimension and every pair
// of elements differs by at most tol. A NaN is never within tolerance.
func (v Vector) ApproxEqual(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if !(math.Abs(float64(v[i])-float64(w[i])) <= tol) {
			return false
		}
	}
	return true
}

// AddInPlace accumulates w into v. It is the hot path of every reduction
// engine and performs no allocation.
func (v Vector) AddInPlace(w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("%w: %d vs %d", ErrDimMismatch, len(v), len(w))
	}
	for i := range v {
		v[i] += w[i]
	}
	return nil
}

// Add returns v+w as a fresh vector.
func Add(v, w Vector) (Vector, error) {
	out := v.Clone()
	if err := out.AddInPlace(w); err != nil {
		return nil, err
	}
	return out, nil
}

// Scale multiplies every element of v by s in place and returns v.
func (v Vector) Scale(s float32) Vector {
	for i := range v {
		v[i] *= s
	}
	return v
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

// L2 returns the Euclidean norm of v.
func (v Vector) L2() float64 {
	var acc float64
	for _, x := range v {
		acc += float64(x) * float64(x)
	}
	return math.Sqrt(acc)
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

// Apply combines w into v in place according to op. OpMean accumulates like
// OpSum; call FinalizeMean with the operand count once the reduction tree has
// fully combined a query.
func (op ReduceOp) Apply(v, w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("%w: %d vs %d", ErrDimMismatch, len(v), len(w))
	}
	switch op {
	case OpSum, OpMean:
		for i := range v {
			v[i] += w[i]
		}
	case OpMin:
		for i := range v {
			if w[i] < v[i] {
				v[i] = w[i]
			}
		}
	case OpMax:
		for i := range v {
			if w[i] > v[i] {
				v[i] = w[i]
			}
		}
	default:
		return fmt.Errorf("tensor: unknown reduce op %d", op)
	}
	return nil
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
