package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randomVector draws values whose sums round differently in different
// orders: mixed signs and magnitudes spread over ~12 binades.
func randomVector(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(12)-6)
	}
	return v
}

func bitsEqual(t *testing.T, what string, got, want Vector) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%g), want %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestMatVecMatchesDotBitForBit: every row sum carries the bits Dot gives it,
// over shapes on and off the four-row block, with and without a row stride.
func TestMatVecMatchesDotBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		rows, cols := rng.Intn(14), rng.Intn(23)
		stride := cols + rng.Intn(3)
		w, x := randomVector(rng, rows*stride), randomVector(rng, cols)
		got, want := randomVector(rng, rows), NewVector(rows)
		for r := range want {
			want[r] = w[r*stride : r*stride+cols].Dot(x)
		}
		MatVec(got, w, stride, x)
		bitsEqual(t, "MatVec", got, want)
	}
}

// TestAddOuterMatchesAXPYBitForBit: every element carries the bits the
// per-sample AXPY loop leaves in it, over shapes on and off the eight-column
// tile, into zeroed and non-zero g, in one call and split across two (a
// minibatch that wraps the dataset end arrives as two runs).
func TestAddOuterMatchesAXPYBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		rows, cols, n := 1+rng.Intn(7), 1+rng.Intn(27), rng.Intn(9)
		stride := cols + rng.Intn(3)
		a, x := randomVector(rng, n*rows), randomVector(rng, n*cols)
		want := NewVector(rows * stride)
		if trial%2 == 1 {
			want = randomVector(rng, rows*stride)
		}
		got := want.Clone()
		for s := 0; s < n; s++ {
			for r := 0; r < rows; r++ {
				want[r*stride:r*stride+cols].AXPY(a[s*rows+r], x[s*cols:(s+1)*cols])
			}
		}
		cut := 0
		if n > 0 {
			cut = rng.Intn(n + 1)
		}
		AddOuter(got, stride, a[:cut*rows], rows, x[:cut*cols], cols)
		AddOuter(got, stride, a[cut*rows:], rows, x[cut*cols:], cols)
		bitsEqual(t, "AddOuter", got, want)
	}
}

// TestKernelsSumFromPositiveZero: a sum of -0 products is +0 when it starts
// at +0 and adds, as Dot and AXPY into a zeroed vector do; a kernel that
// seeded its accumulators with the first product would return -0.
func TestKernelsSumFromPositiveZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const rows, cols, n = 5, 11, 3
	w, x := NewVector(rows*cols), NewVector(cols)
	for i := range w {
		w[i] = -1 // times +0: every product is -0
	}
	out := NewVector(rows)
	for i := range out {
		out[i] = negZero
	}
	MatVec(out, w, cols, x)
	a, xs, g := NewVector(n*rows), NewVector(n*cols), NewVector(rows*cols)
	for i := range a {
		a[i] = -1
	}
	AddOuter(g, cols, a, rows, xs, cols)
	for _, v := range append(out, g...) {
		if math.Float64bits(v) != 0 {
			t.Fatalf("sum of -0 products = %x, want +0", math.Float64bits(v))
		}
	}
}

func TestKernelShapeMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MatVec short backing":   func() { MatVec(NewVector(3), NewVector(11), 4, NewVector(4)) },
		"MatVec stride too low":  func() { MatVec(NewVector(2), NewVector(8), 3, NewVector(4)) },
		"AddOuter sample counts": func() { AddOuter(NewVector(6), 3, NewVector(4), 2, NewVector(9), 3) },
		"AddOuter short g":       func() { AddOuter(NewVector(5), 3, NewVector(4), 2, NewVector(6), 3) },
		"AddOuter ragged a":      func() { AddOuter(NewVector(6), 3, NewVector(5), 2, NewVector(6), 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
