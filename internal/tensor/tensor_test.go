package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	v := New(8)
	if v.Dim() != 8 {
		t.Fatalf("Dim = %d, want 8", v.Dim())
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("element %d = %v, want 0", i, x)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone aliased the original: v[0]=%v", v[0])
	}
}

// TestAddInPlace: sum's kernel accumulates in place when dst is v.
func TestAddInPlace(t *testing.T) {
	v := Vector{1, 2, 3}
	if err := OpSum.ApplyTo(v, v, Vector{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{11, 22, 33}) {
		t.Fatalf("got %v", v)
	}
}

func TestAddDimMismatch(t *testing.T) {
	for _, tc := range [][3]Vector{
		{{1, 2}, {1}, {1, 2}},
		{{1, 2}, {1, 2}, {1}},
		{{1}, {1, 2}, {1, 2}},
	} {
		if err := OpSum.ApplyTo(tc[0], tc[1], tc[2]); err == nil {
			t.Errorf("ApplyTo(%v, %v, %v): expected dimension error", tc[0], tc[1], tc[2])
		}
	}
	if _, err := Dot(Vector{1}, Vector{1, 2}); err == nil {
		t.Fatal("expected dimension error from Dot")
	}
}

// TestAddAllocatesFresh: sum written into a fresh vector leaves both
// operands as they were.
func TestAddAllocatesFresh(t *testing.T) {
	a := Vector{1, 2}
	b := Vector{3, 4}
	out := New(2)
	if err := OpSum.ApplyTo(out, a, b); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(Vector{4, 6}) || a[0] != 1 || b[0] != 3 {
		t.Fatalf("ApplyTo into a fresh vector: out %v, operands %v %v", out, a, b)
	}
}

// scalarApply is the reference every ApplyTo result is held to: the
// element rules written one element at a time.
func scalarApply(op ReduceOp, v, w Vector) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i]
		switch op {
		case OpSum, OpMean:
			out[i] = v[i] + w[i]
		case OpMin:
			if w[i] < v[i] {
				out[i] = w[i]
			}
		case OpMax:
			if w[i] > v[i] {
				out[i] = w[i]
			}
		}
	}
	return out
}

// TestApplyToMatchesScalar holds the unrolled kernel to scalarApply bit for
// bit, for every op, on dimensions around the eight-element stride (so both
// the unrolled body and the tail run), with dst fresh and aliasing either
// operand. Operands mix NaN, ±Inf and ±0 with ordinary values, so min and max
// must keep v on a NaN w and on -0 against +0 exactly as the scalar rule does.
func TestApplyToMatchesScalar(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	palette := []float32{nan, inf, -inf, negZero, 0, 1, -1, 2.5, -3, 7, math.MaxFloat32, math.SmallestNonzeroFloat32}
	rng := rand.New(rand.NewSource(38))
	draw := func(n int) Vector {
		v := make(Vector, n)
		for i := range v {
			v[i] = palette[rng.Intn(len(palette))]
		}
		return v
	}
	for _, dim := range []int{0, 1, 7, 8, 9, 127, 128, 129} {
		for _, op := range []ReduceOp{OpSum, OpMin, OpMax, OpMean} {
			for _, alias := range []string{"fresh", "dst=v", "dst=w"} {
				v, w := draw(dim), draw(dim)
				want := scalarApply(op, v, w)
				var dst Vector
				var err error
				switch alias {
				case "fresh":
					dst = New(dim)
					err = op.ApplyTo(dst, v, w)
				case "dst=v":
					dst = v.Clone()
					err = op.ApplyTo(dst, dst, w)
				case "dst=w":
					dst = w.Clone()
					err = op.ApplyTo(dst, v, dst)
				}
				if err != nil {
					t.Fatalf("%v dim %d %s: %v", op, dim, alias, err)
				}
				for i := range want {
					if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%v dim %d %s: element %d of %v op %v = %v, want %v",
							op, dim, alias, i, v[i], w[i], dst[i], want[i])
					}
				}
			}
		}
	}
}

func TestDot(t *testing.T) {
	got, err := Dot(Vector{1, 2, 3}, Vector{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

// TestEqual: lookups are compared bit for bit, so any difference, a
// different dimension or a NaN on either side is unequal.
func TestEqual(t *testing.T) {
	a := Vector{1, 2}
	nan := float32(math.NaN())
	for _, tc := range []struct {
		name string
		v, w Vector
		want bool
	}{
		{"identical", a, Vector{1, 2}, true},
		{"one ulp apart", a, Vector{1.0000001, 2}, false},
		{"different dims", a, Vector{1}, false},
		{"NaN in v", Vector{nan}, Vector{3}, false},
		{"NaN in w", Vector{3}, Vector{nan}, false},
		{"NaN in both", Vector{nan}, Vector{nan}, false},
	} {
		if got := tc.v.Equal(tc.w); got != tc.want {
			t.Errorf("%s: %v.Equal(%v) = %v, want %v", tc.name, tc.v, tc.w, got, tc.want)
		}
	}
}

func TestReduceOpApplySum(t *testing.T) {
	v := Vector{1, 5}
	if err := OpSum.Apply(v, Vector{2, 2}); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{3, 7}) {
		t.Fatalf("got %v", v)
	}
}

func TestReduceOpApplyMinMax(t *testing.T) {
	v := Vector{1, 5}
	if err := OpMin.Apply(v, Vector{2, 2}); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{1, 2}) {
		t.Fatalf("min got %v", v)
	}
	v = Vector{1, 5}
	if err := OpMax.Apply(v, Vector{2, 2}); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{2, 5}) {
		t.Fatalf("max got %v", v)
	}
}

func TestReduceOpMean(t *testing.T) {
	v := Vector{2, 4}
	if err := OpMean.Apply(v, Vector{4, 8}); err != nil {
		t.Fatal(err)
	}
	OpMean.FinalizeMean(v, 2)
	if !v.Equal(Vector{3, 6}) {
		t.Fatalf("mean got %v", v)
	}
	// FinalizeMean is a no-op for sum.
	w := Vector{4, 4}
	OpSum.FinalizeMean(w, 2)
	if !w.Equal(Vector{4, 4}) {
		t.Fatalf("sum finalize mutated: %v", w)
	}
}

func TestReduceOpApplyMismatch(t *testing.T) {
	if err := OpSum.Apply(Vector{1}, Vector{1, 2}); err == nil {
		t.Fatal("expected dim error")
	}
}

func TestReduceOpApplyUnknown(t *testing.T) {
	bad := ReduceOp(42)
	if bad.Valid() {
		t.Fatal("ReduceOp(42) reported valid")
	}
	if err := bad.Apply(Vector{1}, Vector{1}); err == nil {
		t.Fatal("expected unknown-op error")
	}
}

func TestReduceOpString(t *testing.T) {
	names := map[ReduceOp]string{OpSum: "sum", OpMin: "min", OpMax: "max", OpMean: "mean"}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	if ReduceOp(9).String() != "ReduceOp(9)" {
		t.Errorf("unknown op string: %q", ReduceOp(9).String())
	}
}

func TestIdentity(t *testing.T) {
	z := OpSum.Identity(3)
	if !z.Equal(Vector{0, 0, 0}) {
		t.Fatalf("sum identity %v", z)
	}
	mn := OpMin.Identity(2)
	if !math.IsInf(float64(mn[0]), 1) {
		t.Fatalf("min identity %v", mn)
	}
	mx := OpMax.Identity(2)
	if !math.IsInf(float64(mx[0]), -1) {
		t.Fatalf("max identity %v", mx)
	}
	// Identity absorbs under Apply.
	v := OpMin.Identity(2)
	if err := OpMin.Apply(v, Vector{5, -3}); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{5, -3}) {
		t.Fatalf("min identity not neutral: %v", v)
	}
}

// Property: sum reduction is commutative element-wise (IEEE addition of two
// operands commutes exactly).
func TestQuickSumCommutative(t *testing.T) {
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		x := Vector(a[:n]).Clone()
		y := Vector(b[:n]).Clone()
		x2 := Vector(a[:n]).Clone()
		y2 := Vector(b[:n]).Clone()
		if err := OpSum.Apply(x, y); err != nil {
			return false
		}
		if err := OpSum.Apply(y2, x2); err != nil {
			return false
		}
		for i := range x {
			xi, yi := x[i], y2[i]
			if xi != yi && !(math.IsNaN(float64(xi)) && math.IsNaN(float64(yi))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: min and max are idempotent (x op x == x).
func TestQuickMinMaxIdempotent(t *testing.T) {
	f := func(a []float32) bool {
		for _, op := range []ReduceOp{OpMin, OpMax} {
			v := Vector(a).Clone()
			w := Vector(a).Clone()
			if err := op.Apply(v, w); err != nil {
				return false
			}
			for i := range v {
				vi, ai := v[i], a[i]
				if vi != ai && !(math.IsNaN(float64(vi)) && math.IsNaN(float64(ai))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestParseOp(t *testing.T) {
	for _, op := range []ReduceOp{OpSum, OpMin, OpMax, OpMean} {
		if got, err := ParseOp(op.String()); err != nil || got != op {
			t.Errorf("ParseOp(%q) = %v, %v; want %v", op.String(), got, err, op)
		}
	}
	if got, err := ParseOp(""); err != nil || got != OpSum {
		t.Errorf(`ParseOp("") = %v, %v; want the default, sum`, got, err)
	}
	for _, s := range []string{"median", "Sum", " sum", ReduceOp(9).String()} {
		if _, err := ParseOp(s); err == nil {
			t.Errorf("ParseOp(%q) succeeded, want error", s)
		}
	}
}
