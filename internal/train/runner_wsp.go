package train

import (
	"fmt"
	"math"
	"math/rand"

	"hetpipe/internal/metrics"
	"hetpipe/internal/tensor"
	"hetpipe/internal/wsp"
)

// WSPConfig parameterizes a co-simulated HetPipe training run: N pipelined
// virtual workers training one Task under the WSP protocol, with per-worker
// timing taken from the cluster simulator.
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
	// Periods[w] is worker w's steady-state seconds per minibatch.
	Periods []float64
	// FillLatency[w] is the injection-to-completion latency of worker w's
	// pipeline; zero entries default to the period.
	FillLatency []float64
	// PushTime[w] / PullTime[w] are the per-wave parameter-sync transfer
	// times between worker w and the parameter servers.
	PushTime, PullTime []float64
	// Jitter is the relative per-minibatch duration noise (e.g. 0.08).
	Jitter float64
	// Seed drives all randomness.
	Seed int64
	// MaxMinibatches bounds each worker's minibatch count.
	MaxMinibatches int
	// EvalEvery evaluates accuracy every that many global completions.
	EvalEvery int
	// TargetAccuracy stops the run early once reached (0 disables).
	TargetAccuracy float64
	// TargetLoss stops the run early once the training loss drops to it
	// (0 disables). Loss is the sharper convergence criterion for tasks
	// whose accuracy saturates early.
	TargetLoss float64
}

func (c *WSPConfig) validate() error {
	switch {
	case len(c.Periods) != c.Workers:
		return fmt.Errorf("train: %d periods for %d workers", len(c.Periods), c.Workers)
	case c.MaxMinibatches < 1:
		return fmt.Errorf("train: zero minibatch budget")
	case c.EvalEvery < 1:
		return fmt.Errorf("train: EvalEvery must be >= 1")
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

// RunStats summarizes a co-simulated training run.
type RunStats struct {
	// Accuracy is held-out accuracy versus simulated seconds.
	Accuracy metrics.Series
	// Loss is training loss versus simulated seconds.
	Loss metrics.Series
	// TimeToTarget is the earliest simulated time TargetAccuracy was met.
	TimeToTarget  float64
	ReachedTarget bool
	// Minibatches is the total processed across workers.
	Minibatches int
	// Elapsed is the simulated time at the end of the run.
	Elapsed float64
	// Waiting is total gate-waiting time summed over workers; Idle is the
	// portion during which a worker's pipeline had fully drained — the
	// Section 8.4 decomposition.
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
	// it by wsp.Params.SGlobal. Zero for the BSP and SSP baselines.
	MaxStaleness int
}

// snapshot is an in-flight minibatch's timing: its scheduled completion.
type snapshot struct {
	mb       int
	complete float64
}

// simWorker is one virtual worker in the co-simulation: its numeric program
// and the timing state the event loop keeps around it.
type simWorker struct {
	id  int
	num *Worker
	// inflight holds the completion events still to come, oldest first.
	inflight []snapshot
	// lastScheduled is the completion time of the most recently scheduled
	// minibatch (sequencing successive completions one period apart).
	lastScheduled float64
	slotFreeAt    float64
	rng           *rand.Rand
}

// RunWSP executes the co-simulated HetPipe run.
//
// Timing and numerics are deliberately decoupled: the discrete-event side
// decides WHEN injections, completions, pushes, and gate waits happen, while
// the numeric dataflow (which updates each minibatch's weights reflect) is a
// pure function of the protocol parameters — snapshots at a fixed logical
// lag of Nm, pulls that read the clock-versioned global prefix. Periods,
// jitter, and transfer times therefore shape the time axis but never the
// trajectory, and the live sharded-PS runtime (internal/cluster) reproduces
// the exact same numbers, which the conformance harness asserts.
func RunWSP(cfg WSPConfig) (*RunStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	params := wsp.Params{SLocal: cfg.SLocal, D: cfg.D, Workers: cfg.Workers}
	coord, err := wsp.NewCoordinator(params)
	if err != nil {
		return nil, err
	}
	nm := params.WaveSize()

	fill := make([]float64, cfg.Workers)
	push := make([]float64, cfg.Workers)
	pull := make([]float64, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		fill[w] = cfg.Periods[w]
		if w < len(cfg.FillLatency) && cfg.FillLatency[w] > 0 {
			fill[w] = cfg.FillLatency[w]
		}
		if w < len(cfg.PushTime) {
			push[w] = cfg.PushTime[w]
		}
		if w < len(cfg.PullTime) {
			pull[w] = cfg.PullTime[w]
		}
	}

	workers := make([]*simWorker, cfg.Workers)
	for w := range workers {
		num, err := NewWorker(cfg.Task, w, params, cfg.LR)
		if err != nil {
			return nil, err
		}
		workers[w] = &simWorker{id: w, num: num, rng: rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))}
	}
	// wglobal takes pushes in arrival order — what an evaluation at simulated
	// time t sees.
	wglobal := cfg.Task.InitWeights()

	// prefix[c] is the clock-c snapshot of the global weights pulls read: w0
	// plus every worker's wave-v delta with v < c, folded in (wave, worker)
	// order as ps.Server folds them, so it does not depend on when pushes
	// arrive. Built lazily: a pull at clock c is only reachable once every
	// worker has pushed, hence sealed, wave c-1, and a worker drops its wave-v
	// delta only in a pull above v, whose snapshotAt has folded wave v first.
	prefix := []tensor.Vector{wglobal.Clone()}
	snapshotAt := func(c int) tensor.Vector {
		for len(prefix) <= c {
			wave := len(prefix) - 1
			next := prefix[wave].Clone()
			for _, w := range workers {
				next.AddInPlace(w.num.Delta(wave))
			}
			prefix = append(prefix, next)
		}
		return prefix[c]
	}

	// pushVisible[c] is when the global clock reached c (the last push of
	// wave c-1 arrived at the servers); index 0 is time zero. pushArrive[w]
	// holds the arrival times of worker w's pushes, in wave order.
	pushVisible := []float64{0}
	pushArrive := make([][]float64, cfg.Workers)

	stats := &RunStats{Accuracy: metrics.Series{Name: "accuracy"}, Loss: metrics.Series{Name: "loss"}}
	completionsSinceEval := 0
	now := 0.0

	evaluate := func(t float64) bool {
		acc := cfg.Task.Accuracy(wglobal)
		loss := cfg.Task.Loss(wglobal)
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

	// gateReady reports when worker w's next injection may happen, or
	// (0, false) when the required global clock has not been reached yet.
	// When the worker must actually pull, the transfer starts once the
	// clock is visible AND the worker is free to issue it; both inputs are
	// re-read on every query because slotFreeAt advances as in-flight
	// minibatches complete — a latched value could let the pull "finish"
	// before the worker was free to start it.
	gateReady := func(w *simWorker) (float64, bool) {
		req := params.RequiredGlobalClock(w.num.Next())
		if req == 0 {
			return 0, true
		}
		if req >= len(pushVisible) {
			return 0, false
		}
		ready := pushVisible[req]
		if w.num.PullClock() > 0 {
			ready = math.Max(ready, w.slotFreeAt) + pull[w.id]
		}
		return ready, true
	}

	// nextEvent computes worker w's earliest actionable event:
	// kind 0 = none, 1 = completion, 2 = injection.
	nextEvent := func(w *simWorker) (kind int, at float64) {
		if len(w.inflight) > 0 {
			kind, at = 1, w.inflight[0].complete
		}
		if len(w.inflight) < nm && w.num.Next() <= cfg.MaxMinibatches {
			if ready, ok := gateReady(w); ok {
				inj := math.Max(w.slotFreeAt, ready)
				if kind == 0 || inj < at {
					kind, at = 2, inj
				}
			}
		}
		return kind, at
	}

	for {
		// Pick the globally earliest event.
		best, bestAt, bestKind := -1, math.Inf(1), 0
		for _, w := range workers {
			if kind, at := nextEvent(w); kind != 0 && at < bestAt {
				best, bestAt, bestKind = w.id, at, kind
			}
		}
		if best < 0 {
			// All workers drained their budgets, or the remaining workers
			// are gated on pushes that will never come because their peers
			// finished — the natural end of a fixed-budget run.
			break
		}
		w := workers[best]
		if bestAt < now {
			bestAt = now
		}
		now = bestAt

		if bestKind == 2 {
			// Injection of the worker's next minibatch.
			mb := w.num.Next()
			ready, _ := gateReady(w)
			natural := w.slotFreeAt
			if ready > natural {
				stats.Waiting += ready - natural
				if len(w.inflight) == 0 && ready > w.lastScheduled {
					drainFrom := math.Max(natural, w.lastScheduled)
					stats.Idle += ready - drainFrom
				}
			}
			// Lazy pull: only a gated wave-end minibatch that needs a clock the
			// worker has not incorporated pulls, and it is credited with the
			// clock the gate required — what it has provably seen — never the
			// coordinator's instantaneous one. With D=0 that is every wave;
			// with larger D, every wave past the first D+1 (which is why larger
			// D reduces synchronization traffic, Section 8.4).
			if req := w.num.PullClock(); req > 0 {
				copy(w.num.Weights(), snapshotAt(req))
				w.num.Pulled(req)
				stats.Pulls++
			}
			coord.Start(w.id, mb)
			period := cfg.Periods[w.id]
			if cfg.Jitter > 0 {
				period *= 1 + cfg.Jitter*(2*w.rng.Float64()-1)
			}
			complete := math.Max(now+fill[w.id], w.lastScheduled+period)
			w.lastScheduled = complete
			w.inflight = append(w.inflight, snapshot{mb: mb, complete: complete})
			// Numerics know no time: a wave's delta (the push CONTENT) is sealed
			// when its last minibatch retires, here or in the drain behind the
			// last injection; the push TIME is the wave-end completion event.
			w.num.Inject()
			if mb == cfg.MaxMinibatches {
				for w.num.Drain() > 0 {
				}
			}
			continue
		}

		// Completion of the oldest in-flight minibatch.
		snap := w.inflight[0]
		w.inflight = w.inflight[1:]
		w.slotFreeAt = now
		stats.Minibatches++
		completionsSinceEval++

		if params.IsWaveEnd(snap.mb) {
			// Push the wave's aggregated update (wglobal += u~), sealed at the
			// wave end's retirement, which always precedes this completion.
			wglobal.AddInPlace(w.num.Delta(params.Wave(snap.mb)))
			coord.Push(w.id)
			stats.Pushes++
			pushArrive[w.id] = append(pushArrive[w.id], now+push[w.id])
			// When the global clock advances, wave c becomes visible once
			// every worker's push of wave c-1 has arrived.
			for c := len(pushVisible); c <= coord.GlobalClock(); c++ {
				arrive := 0.0
				for _, arr := range pushArrive {
					if t := arr[c-1]; t > arrive {
						arrive = t
					}
				}
				pushVisible = append(pushVisible, arrive)
			}
		}

		if completionsSinceEval >= cfg.EvalEvery {
			completionsSinceEval = 0
			if evaluate(now) {
				break
			}
		}
	}

	stats.Elapsed = now
	// Final evaluation — unless one already ran at exactly this time, which
	// would duplicate the curve's last point.
	if last, ok := stats.Accuracy.Last(); !ok || last.T != now {
		evaluate(now)
	}
	// FinalWeights carries the same pushed-update set as wglobal, but folded
	// in (wave, worker) order — the order the parameter servers' snapshots
	// use — so the value is bit-stable across timing configurations and
	// directly comparable with the live runtime's.
	final := prefix[len(prefix)-1].Clone()
	for v := len(prefix) - 1; ; v++ {
		pushed := false
		for _, w := range workers {
			if v < coord.Clock(w.id) {
				final.AddInPlace(w.num.Delta(v))
				pushed = true
			}
		}
		if !pushed {
			break
		}
	}
	stats.FinalWeights = final
	for _, w := range workers {
		stats.MaxStaleness = max(stats.MaxStaleness, w.num.MaxStaleness())
	}
	stats.MaxClockDistance = coord.MaxClockDistance()
	return stats, nil
}
