package tensor

import (
	"encoding/binary"
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

// TestApplyToMatchesScalar holds ApplyTo, for every op, and each sum kernel
// this CPU runs, called directly, to scalarApply bit for bit. Dimensions sit
// on both sides of the eight- and sixteen-element strides, so every unrolled
// body, vector block and tail length runs; dst is fresh or aliases either
// operand, and every operand is also tried one element past an allocation's
// start, so the vector loads are unaligned. Operands mix NaN, ±Inf and ±0
// with ordinary values, so min and max must keep v on a NaN w and on -0
// against +0 exactly as the scalar rule does.
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
	type impl struct {
		name  string
		op    ReduceOp
		apply func(dst, v, w Vector) error
	}
	var impls []impl
	for _, op := range []ReduceOp{OpSum, OpMin, OpMax, OpMean} {
		impls = append(impls, impl{"ApplyTo", op, op.ApplyTo})
	}
	for _, k := range sumKernels() {
		impls = append(impls, impl{k.name, OpSum, func(dst, v, w Vector) error { k.add(dst, v, w); return nil }})
	}
	dims := []int{0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 127, 128, 129, 255, 256, 257}
	for _, dim := range dims {
		for _, im := range impls {
			for _, off := range []int{0, 1} {
				// at copies x to off elements past the start of a fresh buffer.
				at := func(x Vector) Vector {
					buf := make(Vector, off+len(x))
					copy(buf[off:], x)
					return buf[off:]
				}
				for _, alias := range []string{"fresh", "dst=v", "dst=w"} {
					v, w := at(draw(dim)), at(draw(dim))
					want := scalarApply(im.op, v, w)
					var dst Vector
					var err error
					switch alias {
					case "fresh":
						dst = at(New(dim))
						err = im.apply(dst, v, w)
					case "dst=v":
						dst = at(v)
						err = im.apply(dst, dst, w)
					case "dst=w":
						dst = at(w)
						err = im.apply(dst, v, dst)
					}
					if err != nil {
						t.Fatalf("%s %v dim %d offset %d %s: %v", im.name, im.op, dim, off, alias, err)
					}
					for i := range want {
						if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s %v dim %d offset %d %s: element %d of %v op %v = %v, want %v",
								im.name, im.op, dim, off, alias, i, v[i], w[i], dst[i], want[i])
						}
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

// quietBit is the float32 quiet-NaN bit, which an x86 add sets on the NaN it
// returns.
const quietBit = 1 << 22

// FuzzSumKernel holds the AVX-512 sum kernel to the Go one bit for bit. data
// is read as raw float32 bit patterns, v's then w's, up to 300 each, so NaN
// payloads, ±Inf, -0 and subnormals all appear; alias%3 picks dst fresh,
// aliasing v or aliasing w.
//
// Where both operands are NaN, IEEE 754 and the Go spec leave open which
// payload the sum carries, and addGo's own choice varies with the element:
// the compiler folds w's load into the add on the first element of each
// eight, so that element returns w's payload and the rest v's. There the
// kernels must agree only that the sum is one of the two quieted operands.
func FuzzSumKernel(f *testing.F) {
	bits := func(xs ...float32) []byte {
		b := make([]byte, 0, 4*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		return b
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero, tiny := float32(math.Copysign(0, -1)), float32(math.SmallestNonzeroFloat32)
	quiet, signalling := math.Float32frombits(0xffc00002), math.Float32frombits(0x7fa00001)
	// Sixteen of each, one full vector block: NaN meets NaN of another
	// payload, a signalling NaN, infinities of both signs, -0 and subnormals.
	v := []float32{nan, -inf, inf, negZero, tiny, math.MaxFloat32, signalling, 3, quiet, inf, negZero, -tiny, 1, nan, 2.5, -8}
	w := []float32{quiet, inf, inf, 0, -tiny, math.MaxFloat32, nan, -3, signalling, -inf, negZero, tiny, nan, 1, -2.5, 8}
	f.Add([]byte{}, uint8(0))
	f.Add(bits(1, 2), uint8(1))
	for alias := uint8(0); alias < 3; alias++ {
		f.Add(bits(append(v, w...)...), alias)
	}
	f.Add(make([]byte, 8*257), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, alias uint8) {
		if !haveAVX512 {
			t.Skip("no AVX-512 on this CPU: the Go kernel is the only one")
		}
		n := min(len(data)/8, 300)
		v, w := make(Vector, n), make(Vector, n)
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			w[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(n+i):]))
		}
		run := func(add func(dst, v, w Vector)) Vector {
			v, w := v.Clone(), w.Clone()
			switch alias % 3 {
			case 1:
				add(v, v, w)
				return v
			case 2:
				add(w, v, w)
				return w
			}
			dst := New(n)
			add(dst, v, w)
			return dst
		}
		got, want := run(addAsm), run(addGo)
		for i := range want {
			g, vb, wb := math.Float32bits(got[i]), math.Float32bits(v[i])|quietBit, math.Float32bits(w[i])|quietBit
			if math.IsNaN(float64(v[i])) && math.IsNaN(float64(w[i])) && (g == vb || g == wb) {
				// Both operands NaN: the payload is the one choice left open.
				continue
			}
			if g != math.Float32bits(want[i]) {
				t.Fatalf("n %d alias %d: element %d: %#08x + %#08x = %#08x by addAsm, %#08x by addGo",
					n, alias%3, i, math.Float32bits(v[i]), math.Float32bits(w[i]),
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	})
}

// BenchmarkApplyTo times one sum of two 128-float vectors, the benchmarks'
// row width, by each sum kernel this CPU runs.
func BenchmarkApplyTo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v, w, dst := New(128), New(128), New(128)
	for i := range v {
		v[i], w[i] = float32(rng.Intn(17)-8), float32(rng.Intn(17)-8)
	}
	for _, k := range sumKernels() {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.add(dst, v, w)
			}
		})
	}
}
