package train

import (
	"fmt"
	"math"

	"hetpipe/internal/tensor"
	"hetpipe/internal/wsp"
)

// Worker is one virtual worker's numeric program under WSP, with no notion of
// time: the single definition of the Section 5 staleness window, executed by
// the simulator's Numerics and by the live runtime (internal/cluster) alike.
//
// Minibatches are injected in order. Injecting minibatch m records the weights
// it trains on and retires minibatch m-Nm+1 — its gradient, taken at the
// weights recorded for it, is folded into the local weights and into the open
// wave's accumulator — so m trains on weights holding the worker's own updates
// through exactly m-Nm. The last retirement of a wave seals the accumulator
// into the wave's delta, the one update the worker pushes for that wave. An
// injection PullClock names a clock for must first overwrite Weights with that
// clock's prefix snapshot (the initial weights plus every worker's waves below
// the clock) and call Pulled, which re-adds the worker's own waves the
// snapshot cannot hold yet. What drives these steps, and when, is the
// backend's business; the weights they produce are not.
type Worker struct {
	task   Task
	id     int
	params wsp.Params
	lr     float64

	wlocal tensor.Vector
	// acc is the open wave's accumulated update.
	acc  tensor.Vector
	grad tensor.Vector
	// injected and retired count minibatches; both happen in order, so the
	// ones in flight are retired+1..injected, at most Nm of them, and pending
	// holds the weights recorded for minibatch m at slot (m-1) mod Nm.
	injected, retired int
	pending           []tensor.Vector
	// deltas holds the sealed deltas of the most recent waves, the last one
	// being wave Waves()-1. A pull at clock c re-adds the waves >= c and clocks
	// never decrease, so Pulled drops everything below c: D+1 vectors in
	// steady state, however long the run.
	deltas     []tensor.Vector
	lastPulled int
	pulls      int
	maxStale   int
	// free recycles the Dim-sized vectors the program is done with — retired
	// pending weights and dropped deltas — so the steady state allocates
	// neither a weight copy per minibatch nor a delta per wave.
	free []tensor.Vector
}

// checkLR rejects a step size no trainer can use; NaN and +Inf would pass a
// bare "<= 0" test and poison every weight.
func checkLR(lr float64) error {
	if math.IsNaN(lr) || math.IsInf(lr, 0) {
		return fmt.Errorf("train: learning rate must be finite, got %g", lr)
	}
	if lr <= 0 {
		return fmt.Errorf("train: learning rate must be positive, got %g", lr)
	}
	return nil
}

// NewWorker returns worker id of params.Workers at minibatch 1, on the task's
// initial weights.
func NewWorker(task Task, id int, params wsp.Params, lr float64) (*Worker, error) {
	if task == nil {
		return nil, fmt.Errorf("train: nil task")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= params.Workers {
		return nil, fmt.Errorf("train: worker %d out of range [0,%d)", id, params.Workers)
	}
	if err := checkLR(lr); err != nil {
		return nil, err
	}
	dim := task.Dim()
	return &Worker{
		task: task, id: id, params: params, lr: lr,
		wlocal:  task.InitWeights(),
		acc:     tensor.NewVector(dim),
		grad:    tensor.NewVector(dim),
		pending: make([]tensor.Vector, params.WaveSize()),
	}, nil
}

// getWeights returns a recycled (or fresh) vector holding a copy of src.
func (w *Worker) getWeights(src tensor.Vector) tensor.Vector {
	if n := len(w.free); n > 0 {
		v := w.free[n-1]
		w.free = w.free[:n-1]
		copy(v, src)
		return v
	}
	return src.Clone()
}

// Next is the 1-based number of the next minibatch to inject.
func (w *Worker) Next() int { return w.injected + 1 }

// Retired is the number of minibatches retired so far; they retire in order.
func (w *Worker) Retired() int { return w.retired }

// Waves is the number of waves sealed so far — the index of the next to end.
func (w *Worker) Waves() int { return w.params.CompleteWaves(w.retired) }

// Pulls is the number of snapshots pulled so far.
func (w *Worker) Pulls() int { return w.pulls }

// LastPulled is the clock of the newest snapshot pulled (0 before the first).
// The program never pulls below it again: PullClock only names later clocks.
func (w *Worker) LastPulled() int { return w.lastPulled }

// Retained is the number of sealed deltas held: the waves at or above the last
// pulled clock.
func (w *Worker) Retained() int { return len(w.deltas) }

// Delta is the sealed delta of a wave still held — what the worker pushes for
// that wave. It stays valid and unchanged until a Pulled above the wave.
func (w *Worker) Delta(wave int) tensor.Vector {
	return w.deltas[wave-(w.Waves()-len(w.deltas))]
}

// MaxStaleness is the largest number of another worker's updates any injected
// minibatch's weights were missing: minibatch m, injected with the clock-c
// snapshot as its newest, misses the m-1-Nm*c minibatches a peer may have run
// beyond that snapshot. WSP bounds it by wsp.Params.SGlobal.
func (w *Worker) MaxStaleness() int { return w.maxStale }

// PullClock reports the snapshot clock the next injection must pull at first:
// the clock its gate requires, unless the worker already holds it. Zero means
// inject without pulling.
func (w *Worker) PullClock() int {
	if req := w.params.RequiredGlobalClock(w.Next()); req > w.lastPulled {
		return req
	}
	return 0
}

// Weights is the worker's local weight vector — the destination a pull
// overwrites in place before Pulled.
func (w *Worker) Weights() tensor.Vector { return w.wlocal }

// Pulled tells the worker that Weights now holds the clock-c prefix snapshot:
// its own waves >= c, which that snapshot lacks, and the open wave's
// accumulator are re-added, and the deltas of older waves, which no later
// pull can ask for, are recycled.
func (w *Worker) Pulled(c int) {
	stale := len(w.deltas) - (w.Waves() - c)
	w.free = append(w.free, w.deltas[:stale]...)
	w.deltas = w.deltas[:copy(w.deltas, w.deltas[stale:])]
	for _, d := range w.deltas {
		w.wlocal.AddInPlace(d)
	}
	w.wlocal.AddInPlace(w.acc)
	w.lastPulled = c
	w.pulls++
}

// Inject injects the next minibatch on the current Weights and, once Nm are
// in flight, retires the oldest, whose number it returns (0 when none
// retired). A retired minibatch that ends its wave (wsp.Params.IsWaveEnd) has
// sealed that wave's Delta.
func (w *Worker) Inject() (retired int) {
	nm := len(w.pending)
	if s := w.injected - nm*w.lastPulled; s > w.maxStale {
		w.maxStale = s
	}
	w.pending[w.injected%nm] = w.getWeights(w.wlocal)
	w.injected++
	if w.injected-w.retired < nm {
		return 0
	}
	return w.retire()
}

// Drain retires the oldest in-flight minibatch once injections have ended,
// returning as Inject does; 0 means nothing is left in flight.
func (w *Worker) Drain() (retired int) {
	if w.retired == w.injected {
		return 0
	}
	return w.retire()
}

func (w *Worker) retire() int {
	slot := w.retired % len(w.pending)
	weights := w.pending[slot]
	w.pending[slot] = nil
	w.retired++
	w.task.Grad(weights, MinibatchIndex(w.id, w.retired, w.params.Workers), w.grad)
	w.free = append(w.free, weights)
	// Local update: wlocal += u, u = -lr * grad (Section 4).
	w.wlocal.AXPY(-w.lr, w.grad)
	w.acc.AXPY(-w.lr, w.grad)
	if w.params.IsWaveEnd(w.retired) {
		w.deltas = append(w.deltas, w.getWeights(w.acc))
		w.acc.Zero()
	}
	return w.retired
}

// Clone returns a deep copy that shares nothing mutable with w — a checkpoint
// of the worker's program.
func (w *Worker) Clone() *Worker {
	c := *w
	c.wlocal = w.wlocal.Clone()
	c.acc = w.acc.Clone()
	c.grad = tensor.NewVector(len(w.grad))
	c.pending = make([]tensor.Vector, len(w.pending))
	for mb := w.retired; mb < w.injected; mb++ {
		slot := mb % len(w.pending)
		c.pending[slot] = w.pending[slot].Clone()
	}
	c.deltas = make([]tensor.Vector, len(w.deltas))
	for i, d := range w.deltas {
		c.deltas[i] = d.Clone()
	}
	c.free = nil
	return &c
}

// MinibatchIndex maps (worker, local minibatch number) to a disjoint global
// minibatch stream per worker — data parallelism splits the dataset.
func MinibatchIndex(worker, mb, workers int) int {
	return (mb-1)*workers + worker
}
