package train

import (
	"context"
	"fmt"

	"hetpipe/internal/metrics"
	"hetpipe/internal/obs"
	"hetpipe/internal/tensor"
	"hetpipe/internal/wsp"
)

// WSPConfig fixes the numerics of a HetPipe training run: N pipelined virtual
// workers training one Task under the WSP protocol. It names no time: when an
// injection, push or pull happens is whatever drives the Numerics' business.
type WSPConfig struct {
	Task Task
	// Workers is the number of virtual workers, N.
	Workers int
	// SLocal is the local staleness threshold (Nm-1).
	SLocal int
	// D is the clock distance bound.
	D int
	// LR is the SGD step size.
	LR float64
	// MaxMinibatches bounds each worker's minibatch count.
	MaxMinibatches int
	// EvalEvery evaluates accuracy every that many global completions.
	EvalEvery int
	// TargetLoss stops the run early once the training loss drops to it
	// (0 disables). Loss is the sharper convergence criterion for tasks
	// whose accuracy saturates early.
	TargetLoss float64
}

// RunStats summarizes a training run.
type RunStats struct {
	// Accuracy is held-out accuracy versus the run's time axis: simulated
	// seconds, or completions for a run nothing timed (RunWSP).
	Accuracy metrics.Series
	// Loss is training loss on the same axis.
	Loss metrics.Series
	// TimeToTarget is the earliest time the loss target was met.
	TimeToTarget  float64
	ReachedTarget bool
	// Minibatches is the total processed across workers.
	Minibatches int
	// Elapsed is the time at the end of the run.
	Elapsed float64
	// Waiting is total gate-waiting time summed over workers; Idle is the
	// portion during which a worker's pipeline had fully drained — the
	// Section 8.4 decomposition. Numerics know no time and leave both zero:
	// whoever holds the clock (core's co-simulation) fills them in.
	Waiting, Idle float64
	// Pushes counts wave pushes (communication rounds to the PS); Pulls
	// counts lazy pulls — both shrink as D grows.
	Pushes, Pulls int
	// FinalAccuracy and FinalLoss are the last evaluated values.
	FinalAccuracy float64
	FinalLoss     float64
	// FinalWeights is the parameter-server global weight vector at the end
	// of the run (w0 plus every pushed wave update) — the value the live
	// sharded-PS runtime (internal/cluster) must reproduce.
	FinalWeights tensor.Vector
	// MaxClockDistance is the largest observed clock skew between workers.
	MaxClockDistance int
	// MaxStaleness is the largest number of a peer's updates any minibatch's
	// weights were missing (Worker.MaxStaleness over the workers); WSP bounds
	// it by wsp.Params.SGlobal. Zero for the BSP baseline.
	MaxStaleness int
}

// evaluator appends a run's accuracy/loss curve to its RunStats and watches
// for the loss target.
type evaluator struct {
	task       Task
	targetLoss float64
	stats      *RunStats
}

func newEvaluator(task Task, targetLoss float64) evaluator {
	return evaluator{task: task, targetLoss: targetLoss,
		stats: &RunStats{Accuracy: metrics.Series{Name: "accuracy"}, Loss: metrics.Series{Name: "loss"}}}
}

// at evaluates weights w at time t and reports whether that is the first
// evaluation to meet the loss target.
func (e *evaluator) at(t float64, w tensor.Vector) bool {
	acc, loss := e.task.Accuracy(w), e.task.Loss(w)
	e.stats.Accuracy.Append(t, acc)
	e.stats.Loss.Append(t, loss)
	e.stats.FinalAccuracy, e.stats.FinalLoss = acc, loss
	if e.targetLoss > 0 && loss <= e.targetLoss && !e.stats.ReachedTarget {
		e.stats.ReachedTarget = true
		e.stats.TimeToTarget = t
		return true
	}
	return false
}

// finish closes the curve at the end time t — unless an evaluation already
// ran at exactly t, which would write the last point twice.
func (e *evaluator) finish(t float64, w tensor.Vector) {
	e.stats.Elapsed = t
	if last, ok := e.stats.Accuracy.Last(); !ok || last.T != t {
		e.at(t, w)
	}
}

// Numerics is the timing-free state of a WSP training run: the N workers'
// programs, the clock-versioned snapshots their pulls read, the global
// weights in push-arrival order and the evaluation curve. The dataflow — which
// updates each minibatch's weights reflect — is a pure function of WSPConfig:
// snapshots at a fixed logical lag of Nm, pulls that read the clock-c prefix.
// A driver therefore only decides WHEN: core's co-simulation through Observe,
// or nothing at all (RunWSP). Stepping a worker early never changes a bit,
// and the live sharded-PS runtime (internal/cluster) lands on the same
// FinalWeights, which the conformance harness asserts.
type Numerics struct {
	cfg     WSPConfig
	workers []*Worker
	// prefix[c] is the clock-c snapshot of the global weights pulls read: w0
	// plus every worker's wave-v delta with v < c, folded in (wave, worker)
	// order as ps.Server folds them, so it does not depend on when pushes
	// arrive. Built lazily: a pull at clock c is only reachable once every
	// worker has sealed wave c-1, and a worker drops its wave-v delta only in
	// a pull above v, whose snapshotAt has folded wave v first.
	prefix []tensor.Vector
	// global takes pushes in arrival order — what an evaluation sees.
	global tensor.Vector
	// clocks counts each worker's waves that have arrived.
	clocks wsp.Clocks
	eval   evaluator
	now    float64
}

// NewNumerics validates cfg and returns the run's state before its first
// minibatch.
func NewNumerics(cfg WSPConfig) (*Numerics, error) {
	switch {
	case cfg.MaxMinibatches < 1:
		return nil, fmt.Errorf("train: zero minibatch budget")
	case cfg.EvalEvery < 1:
		return nil, fmt.Errorf("train: EvalEvery must be >= 1")
	}
	params := wsp.Params{SLocal: cfg.SLocal, D: cfg.D, Workers: cfg.Workers}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := &Numerics{cfg: cfg, workers: make([]*Worker, cfg.Workers)}
	n.clocks.Reset(cfg.Workers, 0, 0)
	for w := range n.workers {
		var err error
		if n.workers[w], err = NewWorker(cfg.Task, w, params, cfg.LR); err != nil {
			return nil, err
		}
	}
	n.global = cfg.Task.InitWeights()
	n.prefix = []tensor.Vector{n.global.Clone()}
	n.eval = newEvaluator(cfg.Task, cfg.TargetLoss)
	return n, nil
}

func (n *Numerics) snapshotAt(c int) tensor.Vector {
	for len(n.prefix) <= c {
		wave := len(n.prefix) - 1
		next := n.prefix[wave].Clone()
		for _, wk := range n.workers {
			next.AddInPlace(wk.Delta(wave))
		}
		n.prefix = append(n.prefix, next)
	}
	return n.prefix[c]
}

// step runs one minibatch of worker w: the lazy pull if its gate names a
// clock the worker has not incorporated — credited with the clock the gate
// required, what it has provably seen — then the injection, and behind the
// last injection the drain. A wave's delta (the push CONTENT) is sealed when
// its last minibatch retires.
func (n *Numerics) step(w int) {
	wk := n.workers[w]
	if c := wk.PullClock(); c > 0 {
		copy(wk.Weights(), n.snapshotAt(c))
		wk.Pulled(c)
	}
	wk.Inject()
	if wk.Next() > n.cfg.MaxMinibatches {
		for wk.Drain() > 0 {
		}
	}
}

// push lands worker w's push of wave (wglobal += u~), stepping the worker as
// far as sealing that wave takes. The minibatches run on the way are the
// wave's own and the ungated head of the next, so every snapshot they pull was
// complete before the clock let the wave's gated end start.
func (n *Numerics) push(w, wave int) {
	wk := n.workers[w]
	for wk.Waves() <= wave {
		if wk.Next() > n.cfg.MaxMinibatches {
			panic(fmt.Sprintf("train: worker %d pushed wave %d beyond its budget of %d minibatches", w, wave, n.cfg.MaxMinibatches))
		}
		n.step(w)
	}
	n.global.AddInPlace(wk.Delta(wave))
	n.clocks.Push(w)
	n.eval.stats.Pushes++
}

// completed counts one minibatch completion at time t, evaluates every
// EvalEvery of them, and reports whether the run just met its target.
func (n *Numerics) completed(t float64) bool {
	n.now = t
	n.eval.stats.Minibatches++
	return n.eval.stats.Minibatches%n.cfg.EvalEvery == 0 && n.eval.at(t, n.global)
}

// Observe advances the numerics by one event of a run that is timing them —
// core's co-simulation of the same N, Nm, D and per-worker budget (a multiple
// of Nm): a push landing adds that wave's delta to the global weights, a
// minibatch completion counts towards the evaluation cadence at the event's
// time. It reports true from the event that meets the target on, which is
// the caller's cue to cancel the run; later events are ignored.
func (n *Numerics) Observe(e obs.Event) (reached bool) {
	if n.eval.stats.ReachedTarget {
		return true
	}
	switch e.Kind {
	case obs.KindPush:
		n.push(e.VW, e.Wave)
	case obs.KindMinibatch:
		return n.completed(e.Time)
	}
	return false
}

// Finish closes the run at the time of its last counted completion and
// returns its statistics.
func (n *Numerics) Finish() *RunStats {
	stats := n.eval.stats
	n.eval.finish(n.now, n.global)
	stats.MaxClockDistance = n.clocks.MaxClockDistance()
	// FinalWeights carries the same pushed-update set as global, but folded
	// in (wave, worker) order — the order the parameter servers' snapshots
	// use — so the value is bit-stable across drivers and directly comparable
	// with the live runtime's.
	final := n.prefix[len(n.prefix)-1].Clone()
	for v := len(n.prefix) - 1; ; v++ {
		pushed := false
		for w, wk := range n.workers {
			if v < n.clocks.Clock(w) {
				final.AddInPlace(wk.Delta(v))
				pushed = true
			}
		}
		if !pushed {
			break
		}
	}
	stats.FinalWeights = final
	for _, wk := range n.workers {
		stats.Pulls += wk.Pulls()
		stats.MaxStaleness = max(stats.MaxStaleness, wk.MaxStaleness())
	}
	return stats
}

// RunWSP runs the numerics with no clock at all, minibatch-major: every
// worker's minibatch m before anyone's m+1, each sealed wave pushed at once.
// No gate is needed — when a worker reaches the gated end of wave v every
// peer has injected through (v+1)*Nm-1, which sealed the wave v-D-1 the gate
// asks for — and the time axis of the curve is the completion count. For
// everything that only wants the weights and the protocol counts. ctx is
// checked once per minibatch round; a cancelled run returns ctx.Err().
func RunWSP(ctx context.Context, cfg WSPConfig) (*RunStats, error) {
	n, err := NewNumerics(cfg)
	if err != nil {
		return nil, err
	}
	for mb := 1; mb <= cfg.MaxMinibatches; mb++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for w, wk := range n.workers {
			n.step(w)
			for n.clocks.Clock(w) < wk.Waves() {
				n.push(w, n.clocks.Clock(w))
			}
			if n.completed(float64(n.eval.stats.Minibatches + 1)) {
				return n.Finish(), nil
			}
		}
	}
	return n.Finish(), nil
}
