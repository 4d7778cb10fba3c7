package train

import (
	"fmt"
	"math"
	"math/rand"

	"hetpipe/internal/metrics"
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
	// Jitter is the relative per-iteration duration noise.
	Jitter float64
	Seed   int64
	// MaxIterations bounds the run; each iteration consumes one minibatch
	// per worker.
	MaxIterations int
	// EvalEvery evaluates accuracy every that many iterations.
	EvalEvery int
	// TargetAccuracy stops the run early once reached (0 disables).
	TargetAccuracy float64
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
	case c.Jitter < 0 || c.Jitter >= 1:
		return fmt.Errorf("train: jitter must be in [0,1)")
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
// own compute time and the barrier).
func RunBSP(cfg BSPConfig) (*RunStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(cfg.Periods)
	w := cfg.Task.InitWeights()
	grad := tensor.NewVector(len(w))
	sum := tensor.NewVector(len(w))
	rng := rand.New(rand.NewSource(cfg.Seed))

	stats := &RunStats{Accuracy: metrics.Series{Name: "accuracy"}, Loss: metrics.Series{Name: "loss"}}
	now := 0.0

	evaluate := func(t float64) bool {
		acc := cfg.Task.Accuracy(w)
		loss := cfg.Task.Loss(w)
		stats.Accuracy.Append(t, acc)
		stats.Loss.Append(t, loss)
		stats.FinalAccuracy = acc
		stats.FinalLoss = loss
		hitAcc := cfg.TargetAccuracy > 0 && acc >= cfg.TargetAccuracy
		hitLoss := cfg.TargetLoss > 0 && loss <= cfg.TargetLoss
		if (hitAcc || hitLoss) && !stats.ReachedTarget {
			stats.ReachedTarget = true
			stats.TimeToTarget = t
			return true
		}
		return false
	}

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		sum.Zero()
		slowest := 0.0
		var durations []float64
		for rank := 0; rank < n; rank++ {
			d := cfg.Periods[rank]
			if cfg.Jitter > 0 {
				d *= 1 + cfg.Jitter*(2*rng.Float64()-1)
			}
			durations = append(durations, d)
			if d > slowest {
				slowest = d
			}
			cfg.Task.Grad(w, iter*n+rank, grad)
			sum.AddInPlace(grad)
		}
		for _, d := range durations {
			stats.Waiting += slowest - d // straggler wait at the barrier
		}
		stats.Idle = stats.Waiting // no pipeline to hide behind: all waiting is idle
		now += slowest + cfg.AllReduceTime
		// Synchronous step on the averaged gradient.
		w.AXPY(-cfg.LR/float64(n), sum)
		stats.Minibatches += n

		if (iter+1)%cfg.EvalEvery == 0 {
			if evaluate(now) {
				break
			}
		}
	}
	stats.Elapsed = now
	if len(stats.Accuracy.Points) == 0 || !stats.ReachedTarget {
		evaluate(now)
	}
	return stats, nil
}

// SSPConfig parameterizes a Stale Synchronous Parallel baseline: N
// single-GPU workers pushing every iteration, each allowed to lead the
// slowest by at most Staleness clocks (Ho et al.).
type SSPConfig struct {
	Task      Task
	Periods   []float64
	Staleness int
	LR        float64
	// SyncTime is the per-iteration push+pull cost with the servers.
	SyncTime float64
	Jitter   float64
	Seed     int64
	// MaxIterations bounds each worker's iteration count.
	MaxIterations  int
	EvalEvery      int
	TargetAccuracy float64
}

// RunSSP executes the SSP baseline with per-iteration pushes. Workers apply
// updates to the shared weights in completion-time order and refresh their
// local copy on every iteration; a worker blocks when it would exceed the
// staleness bound over the slowest worker.
func RunSSP(cfg SSPConfig) (*RunStats, error) {
	if err := checkLR(cfg.LR); err != nil {
		return nil, err
	}
	switch {
	case cfg.Task == nil:
		return nil, fmt.Errorf("train: nil task")
	case len(cfg.Periods) < 1:
		return nil, fmt.Errorf("train: need at least one worker")
	case cfg.Staleness < 0:
		return nil, fmt.Errorf("train: negative staleness")
	case cfg.MaxIterations < 1:
		return nil, fmt.Errorf("train: zero iteration budget")
	case cfg.EvalEvery < 1:
		return nil, fmt.Errorf("train: EvalEvery must be >= 1")
	}
	n := len(cfg.Periods)
	wglobal := cfg.Task.InitWeights()
	grad := tensor.NewVector(len(wglobal))
	rng := rand.New(rand.NewSource(cfg.Seed))

	clock := make([]int, n)     // iterations completed per worker
	tNext := make([]float64, n) // next completion time per worker
	wlocal := make([]tensor.Vector, n)
	for i := range wlocal {
		wlocal[i] = wglobal.Clone()
		tNext[i] = period(cfg.Periods[i], cfg.Jitter, rng) + cfg.SyncTime
	}

	stats := &RunStats{Accuracy: metrics.Series{Name: "accuracy"}, Loss: metrics.Series{Name: "loss"}}
	now := 0.0
	completions := 0

	evaluate := func(t float64) bool {
		acc := cfg.Task.Accuracy(wglobal)
		stats.Accuracy.Append(t, acc)
		stats.Loss.Append(t, cfg.Task.Loss(wglobal))
		stats.FinalAccuracy = acc
		if cfg.TargetAccuracy > 0 && acc >= cfg.TargetAccuracy && !stats.ReachedTarget {
			stats.ReachedTarget = true
			stats.TimeToTarget = t
			return true
		}
		return false
	}

	minClock := func() int {
		m := clock[0]
		for _, c := range clock[1:] {
			if c < m {
				m = c
			}
		}
		return m
	}

	for {
		// Earliest eligible worker: staleness gate c - min <= s.
		best, bestAt := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if clock[i] >= cfg.MaxIterations {
				continue
			}
			if clock[i]-minClock() > cfg.Staleness {
				continue // blocked; its wait accrues implicitly
			}
			if tNext[i] < bestAt {
				best, bestAt = i, tNext[i]
			}
		}
		if best < 0 {
			// Either done, or every unfinished worker is blocked on one
			// that already finished.
			break
		}
		if bestAt > now {
			now = bestAt
		}
		i := best
		cfg.Task.Grad(wlocal[i], clock[i]*n+i, grad)
		wglobal.AXPY(-cfg.LR, grad)
		wlocal[i] = wglobal.Clone()
		clock[i]++
		completions++
		stats.Minibatches++
		tNext[i] = now + period(cfg.Periods[i], cfg.Jitter, rng) + cfg.SyncTime
		if completions%cfg.EvalEvery == 0 {
			if evaluate(now) {
				break
			}
		}
	}
	stats.Elapsed = now
	if len(stats.Accuracy.Points) == 0 || !stats.ReachedTarget {
		evaluate(now)
	}
	stats.Pushes = completions // SSP pushes every minibatch
	return stats, nil
}

func period(base, jitter float64, rng *rand.Rand) float64 {
	if jitter <= 0 {
		return base
	}
	return base * (1 + jitter*(2*rng.Float64()-1))
}
