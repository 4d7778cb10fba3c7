package train

import (
	"context"
	"fmt"
	"slices"

	"hetpipe/internal/tensor"
)

// BSPConfig parameterizes the Horovod baseline: N single-GPU data-parallel
// workers in lockstep. Every iteration, each worker computes a gradient on
// its own minibatch at the shared weights, the gradients are averaged by
// ring all-reduce, and the step applies synchronously. Iteration time is the
// slowest worker's compute (the straggler effect of BSP on heterogeneous
// GPUs) plus the all-reduce time.
type BSPConfig struct {
	Task Task
	// Periods[w] is worker w's seconds per minibatch (whole model on one
	// GPU; workers that cannot hold the model are simply excluded, as the
	// paper excludes the 6 GB GPUs for ResNet-152).
	Periods []float64
	// AllReduceTime is the per-iteration gradient synchronization cost.
	AllReduceTime float64
	// LR is the SGD step size (applied to the averaged gradient).
	LR float64
	// MaxIterations bounds the run; each iteration consumes one minibatch
	// per worker.
	MaxIterations int
	// EvalEvery evaluates accuracy every that many iterations.
	EvalEvery int
	// TargetLoss stops the run early once the training loss drops to it
	// (0 disables).
	TargetLoss float64
}

func (c *BSPConfig) validate() error {
	if err := checkLR(c.LR); err != nil {
		return err
	}
	switch {
	case c.Task == nil:
		return fmt.Errorf("train: nil task")
	case len(c.Periods) < 1:
		return fmt.Errorf("train: need at least one worker")
	case c.MaxIterations < 1:
		return fmt.Errorf("train: zero iteration budget")
	case c.EvalEvery < 1:
		return fmt.Errorf("train: EvalEvery must be >= 1")
	case c.AllReduceTime < 0:
		return fmt.Errorf("train: negative all-reduce time")
	}
	for w, p := range c.Periods {
		if p <= 0 {
			return fmt.Errorf("train: worker %d period %g", w, p)
		}
	}
	return nil
}

// RunBSP executes the Horovod baseline and reports the same statistics as
// RunWSP (Waiting aggregates straggler time: the gap between each worker's
// own compute time and the barrier). Once ctx is done it stops at the next
// evaluation point and returns ctx.Err() and no statistics.
func RunBSP(ctx context.Context, cfg BSPConfig) (*RunStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(cfg.Periods)
	w := cfg.Task.InitWeights()
	grad := tensor.NewVector(len(w))
	sum := tensor.NewVector(len(w))
	eval := newEvaluator(cfg.Task, cfg.TargetLoss)
	stats := eval.stats
	slowest := slices.Max(cfg.Periods)
	now := 0.0

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		sum.Zero()
		for rank := 0; rank < n; rank++ {
			cfg.Task.Grad(w, iter*n+rank, grad)
			sum.AddInPlace(grad)
		}
		for _, d := range cfg.Periods {
			stats.Waiting += slowest - d // straggler wait at the barrier
		}
		stats.Idle = stats.Waiting // no pipeline to hide behind: all waiting is idle
		now += slowest + cfg.AllReduceTime
		// Synchronous step on the averaged gradient.
		w.AXPY(-cfg.LR/float64(n), sum)
		stats.Minibatches += n

		if (iter+1)%cfg.EvalEvery == 0 && (ctx.Err() != nil || eval.at(now, w)) {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eval.finish(now, w)
	return stats, nil
}
