package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); !almostEq(got, 32) {
		t.Errorf("dot = %v, want 32", got)
	}
	u := v.Clone()
	u.AddInPlace(w)
	if !almostEq(u[0], 5) || !almostEq(u[2], 9) {
		t.Errorf("add = %v", u)
	}
	u = v.Clone()
	u.AXPY(2, w)
	if !almostEq(u[1], 12) {
		t.Errorf("axpy = %v", u)
	}
	u.Scale(0.5)
	if !almostEq(u[1], 6) {
		t.Errorf("scale = %v", u)
	}
	d := w.Sub(v)
	if !almostEq(d[0], 3) {
		t.Errorf("sub = %v", d)
	}
	if got := (Vector{3, 4}).Norm2(); !almostEq(got, 5) {
		t.Errorf("norm = %v, want 5", got)
	}
	u.Zero()
	if u[0] != 0 || u[2] != 0 {
		t.Errorf("zero = %v", u)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("clone aliases original")
	}
}

func TestDistanceSquared(t *testing.T) {
	v := Vector{1, 0}
	w := Vector{0, 1}
	if got := v.DistanceSquared(w); !almostEq(got, 1) {
		t.Errorf("distance = %v, want 1", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestMatrixMulVec(t *testing.T) {
	m := Vector{1, 2, 3, 4, 5, 6} // 2 x 3, row-major
	out := NewVector(2)
	MatVec(out, m, 3, Vector{1, 1, 1})
	if !almostEq(out[0], 6) || !almostEq(out[1], 15) {
		t.Errorf("matvec = %v, want [6 15]", out)
	}
	// A stride above len(x) skips trailing per-row entries (a bias column).
	MatVec(out, m, 3, Vector{1, 1})
	if !almostEq(out[0], 3) || !almostEq(out[1], 9) {
		t.Errorf("strided matvec = %v, want [3 9]", out)
	}
}

func TestSoftmax(t *testing.T) {
	v := Vector{1, 2, 3}
	Softmax(v)
	var sum float64
	for _, x := range v {
		if x <= 0 || x >= 1 {
			t.Errorf("softmax out of range: %v", v)
		}
		sum += x
	}
	if !almostEq(sum, 1) {
		t.Errorf("softmax sum = %v, want 1", sum)
	}
	if !(v[2] > v[1] && v[1] > v[0]) {
		t.Errorf("softmax not monotone: %v", v)
	}
	// Large values must not overflow.
	big := Vector{1000, 1001}
	Softmax(big)
	if math.IsNaN(big[0]) || math.IsInf(big[1], 0) {
		t.Errorf("softmax unstable: %v", big)
	}
}

func TestArgmax(t *testing.T) {
	if got := Argmax(Vector{1, 5, 3}); got != 1 {
		t.Errorf("argmax = %d, want 1", got)
	}
	if got := Argmax(nil); got != -1 {
		t.Errorf("argmax(nil) = %d, want -1", got)
	}
}

func TestClip(t *testing.T) {
	v := Vector{-10, 0.5, 10}
	Clip(v, 1)
	if v[0] != -1 || v[1] != 0.5 || v[2] != 1 {
		t.Errorf("clip = %v", v)
	}
}

// Property: dot is symmetric and AXPY matches its definition.
func TestVectorAlgebraProperty(t *testing.T) {
	prop := func(a, b [8]int8, alphaRaw int8) bool {
		v, w := NewVector(8), NewVector(8)
		for i := range v {
			v[i] = float64(a[i])
			w[i] = float64(b[i])
		}
		alpha := float64(alphaRaw)
		if !almostEq(v.Dot(w), w.Dot(v)) {
			return false
		}
		u := v.Clone()
		u.AXPY(alpha, w)
		for i := range u {
			if !almostEq(u[i], v[i]+alpha*w[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution.
func TestSoftmaxProperty(t *testing.T) {
	prop := func(raw [6]int8) bool {
		v := NewVector(6)
		for i := range v {
			v[i] = float64(raw[i]) / 8
		}
		Softmax(v)
		var sum float64
		for _, x := range v {
			if x < 0 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
