// Package tensor provides the dense linear-algebra kernels the numeric
// trainer and the parameter servers need: float64 vectors with the usual
// BLAS-1 operations, softmax utilities, the wire codec, and the two blocked
// kernels a small dense layer is made of — MatVec (weight rows against one
// input) and AddOuter (a minibatch of outer products accumulated into a
// gradient block).
//
// What the kernels guarantee is summation order, hence bits. Every sum is
// formed one term at a time, left to right, from +0: MatVec sums each row as
// Dot does, AddOuter sums each element as a sequence of AXPYs into a zeroed
// vector does. Blocking only interleaves independent sums (several rows per
// pass, a register tile carried across the samples); it never reassociates
// one. Weight trajectories, goldens and sim-vs-live conformance are therefore
// indifferent to which of the two forms computed a gradient, and a change to
// a kernel that moves a single bit is a bug, caught by the reference tests
// here and in internal/train. Everything is plain Go over the standard
// library.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Zero sets every element to zero, in place.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// AddInPlace computes v += w.
func (v Vector) AddInPlace(w Vector) {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] += w[i]
	}
}

// AXPY computes v += alpha*w.
func (v Vector) AXPY(alpha float64, w Vector) {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// Scale computes v *= alpha.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Dot returns the inner product <v, w>.
func (v Vector) Dot(w Vector) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// Sub returns v - w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	checkLen(len(v), len(w))
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// DistanceSquared returns 0.5*||v-w||^2, the D(w||w') of the paper's
// convergence analysis (Assumption 2).
func (v Vector) DistanceSquared(w Vector) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return 0.5 * s
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d vs %d", a, b))
	}
}

// Softmax overwrites v with softmax(v), numerically stabilized.
func Softmax(v Vector) {
	if len(v) == 0 {
		return
	}
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i := range v {
		v[i] = math.Exp(v[i] - max)
		sum += v[i]
	}
	for i := range v {
		v[i] /= sum
	}
}

// Argmax returns the index of the largest element (-1 for empty input).
func Argmax(v Vector) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// Clip bounds every element to [-c, c]; the convergence analysis assumes
// bounded (sub)gradients (Assumption 1), and clipping enforces it.
func Clip(v Vector, c float64) {
	if c <= 0 {
		panic("tensor: clip bound must be positive")
	}
	for i := range v {
		if v[i] > c {
			v[i] = c
		} else if v[i] < -c {
			v[i] = -c
		}
	}
}
