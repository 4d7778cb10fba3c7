package train

import (
	"fmt"
	"math"

	"hetpipe/internal/tensor"
)

// Optimizer turns gradients into parameter updates. The co-simulation
// runners use plain SGD internally; Optimizer provides the momentum and
// schedule variants for standalone training studies and the ablation
// benchmarks.
type Optimizer interface {
	// Step writes the update (to be *added* to the weights) for the given
	// gradient into out; t is the 1-based step counter.
	Step(t int, grad tensor.Vector, out tensor.Vector)
}

// SGD is plain stochastic gradient descent with an optional schedule.
type SGD struct {
	LR float64
	// Schedule maps the step counter to a multiplier (nil = constant 1).
	Schedule func(t int) float64
}

// Step implements Optimizer.
func (o *SGD) Step(t int, grad tensor.Vector, out tensor.Vector) {
	lr := o.LR
	if o.Schedule != nil {
		lr *= o.Schedule(t)
	}
	for i := range out {
		out[i] = -lr * grad[i]
	}
}

// Momentum is SGD with heavy-ball momentum.
type Momentum struct {
	LR, Beta float64
	Schedule func(t int) float64
	velocity tensor.Vector
}

// NewMomentum returns a momentum optimizer for the given dimensionality.
func NewMomentum(dim int, lr, beta float64) (*Momentum, error) {
	if beta < 0 || beta >= 1 {
		return nil, fmt.Errorf("train: momentum beta must be in [0,1), got %g", beta)
	}
	if err := checkLR(lr); err != nil {
		return nil, err
	}
	return &Momentum{LR: lr, Beta: beta, velocity: tensor.NewVector(dim)}, nil
}

// Step implements Optimizer: v = beta*v - lr*grad; out = v.
func (o *Momentum) Step(t int, grad tensor.Vector, out tensor.Vector) {
	lr := o.LR
	if o.Schedule != nil {
		lr *= o.Schedule(t)
	}
	for i := range out {
		o.velocity[i] = o.Beta*o.velocity[i] - lr*grad[i]
		out[i] = o.velocity[i]
	}
}

// InverseSqrt is the Theorem 1 schedule: eta_t = 1/sqrt(t).
func InverseSqrt(t int) float64 {
	if t < 1 {
		t = 1
	}
	return 1 / math.Sqrt(float64(t))
}

// StepDecay halves the rate every interval steps — the classic ImageNet
// schedule (Goyal et al.).
func StepDecay(interval int) func(int) float64 {
	return func(t int) float64 {
		return math.Pow(0.5, float64(t/interval))
	}
}

// WarmupThen linearly ramps the rate over warm steps before delegating to
// next (gradual warmup, Goyal et al.).
func WarmupThen(warm int, next func(int) float64) func(int) float64 {
	return func(t int) float64 {
		if t < warm {
			return float64(t+1) / float64(warm)
		}
		if next == nil {
			return 1
		}
		return next(t - warm)
	}
}
