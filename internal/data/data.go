// Package data generates deterministic synthetic classification datasets for
// the convergence experiments. ImageNet is out of reach without the paper's
// testbed (and irrelevant to the staleness semantics under study), so the
// trainers learn a Gaussian-mixture classification task instead: class
// centers on a sphere, isotropic noise, fixed seeds. Accuracy targets in the
// experiments are task-relative analogs of the paper's 74%/67% top-1 goals.
//
// A dataset keeps its features in one contiguous row-major slab, in sample
// order, so a minibatch is a ready block for the batched kernels of
// internal/tensor: Run hands out consecutive samples without copying or
// building an index, and X[i] are views of the same memory.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"hetpipe/internal/tensor"
)

// Dataset is a labeled feature matrix.
type Dataset struct {
	// X[i] is sample i's features: a view of row i of the slab.
	X       []tensor.Vector
	Y       []int
	Classes int
	Dim     int
	// slab is the Len x Dim row-major feature block every X[i] aliases.
	slab tensor.Vector
}

// Len reports the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// SyntheticClassification draws n samples from a mixture of `classes`
// Gaussians with the given noise standard deviation. The same seed always
// yields the same dataset.
func SyntheticClassification(seed int64, n, dim, classes int, noise float64) (*Dataset, error) {
	if n < classes || dim < 1 || classes < 2 {
		return nil, fmt.Errorf("data: invalid shape n=%d dim=%d classes=%d", n, dim, classes)
	}
	if noise <= 0 {
		return nil, fmt.Errorf("data: noise must be positive, got %g", noise)
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([]tensor.Vector, classes)
	for c := range centers {
		centers[c] = tensor.NewVector(dim)
		var norm float64
		for i := range centers[c] {
			centers[c][i] = rng.NormFloat64()
			norm += centers[c][i] * centers[c][i]
		}
		norm = math.Sqrt(norm)
		for i := range centers[c] {
			centers[c][i] /= norm // unit-sphere centers
		}
	}
	d := &Dataset{
		X: make([]tensor.Vector, n), Y: make([]int, n), Classes: classes, Dim: dim,
		slab: tensor.NewVector(n * dim),
	}
	for s := range d.X {
		c := s % classes // balanced classes
		x := d.slab[s*dim : (s+1)*dim : (s+1)*dim]
		for i := range x {
			x[i] = centers[c][i] + noise*rng.NormFloat64()
		}
		d.X[s], d.Y[s] = x, c
	}
	// Shuffle deterministically so minibatches mix classes. Rows trade
	// contents, not views, so slab order stays sample order.
	tmp := tensor.NewVector(dim)
	rng.Shuffle(n, func(i, j int) {
		copy(tmp, d.X[i])
		copy(d.X[i], d.X[j])
		copy(d.X[j], tmp)
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
	return d, nil
}

// Split partitions the dataset into a training prefix and evaluation suffix.
func (d *Dataset) Split(trainFrac float64) (train, eval *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("data: train fraction must be in (0,1), got %g", trainFrac)
	}
	cut := int(float64(d.Len()) * trainFrac)
	if cut == 0 || cut == d.Len() {
		return nil, nil, fmt.Errorf("data: split produces an empty side (n=%d, frac=%g)", d.Len(), trainFrac)
	}
	at := cut * d.Dim
	train = &Dataset{X: d.X[:cut], Y: d.Y[:cut], Classes: d.Classes, Dim: d.Dim, slab: d.slab[:at:at]}
	eval = &Dataset{X: d.X[cut:], Y: d.Y[cut:], Classes: d.Classes, Dim: d.Dim, slab: d.slab[at:]}
	return train, eval, nil
}

// Run returns the longest run of consecutive samples that starts at sample
// at (taken modulo Len, so sample numbers may count on through epochs) and
// holds at most n of them: their features as one row-major len(y) x Dim block
// of the slab, and their labels. Minibatch b of size B is the samples
// b*B .. b*B+B-1, so a caller walks it as
//
//	for s := 0; s < B; s += len(y) { x, y = d.Run(b*B+s, B-s); ... }
//
// which is a single run unless the minibatch wraps the dataset end.
func (d *Dataset) Run(at, n int) (x tensor.Vector, y []int) {
	if at < 0 || n < 1 {
		panic("data: run needs a non-negative start and a positive length")
	}
	at %= d.Len()
	end := min(at+n, d.Len())
	return d.slab[at*d.Dim : end*d.Dim], d.Y[at:end]
}
