// Package pipeline executes Pipelined Model Parallelism within one virtual
// worker on the discrete-event simulator: one task-graph executor over the
// plan's K = k*V virtual stages (Executor), whose behaviour is selected by
// three decisions the schedule declares in internal/sched, wrapped by the
// training-side injection and accounting (Pipeline). Serving (internal/serve)
// instantiates the same executor forward-only.
//
// The default schedule is the paper's own, following Section 4:
//
//   - up to Nm minibatches are in flight concurrently; a new minibatch is
//     injected as soon as one completes (and any external gate admits it);
//   - forward passes of a stage execute in minibatch order, as do backward
//     passes (conditions 1 and 2), with FIFO scheduling among ready tasks
//     (condition 3) — the natural consequence of FIFO device queues fed by
//     in-order upstream completions;
//   - on the last partition, the forward and backward passes of a minibatch
//     run as a single fused task;
//   - activations flow downstream and local gradients upstream; receiving a
//     transfer serializes with computation on the receiving GPU, matching
//     the paper's partition cost model (Section 7 defines a partition's
//     execution time as computation plus the time to *receive* activations
//     and gradients, and Section 9 notes that PipeDream-style
//     communication/computation overlap would be a further improvement —
//     i.e. HetPipe does not overlap them).
//
// Every other schedule is the same walk with a different value of one of
// the three decisions:
//
//	schedule         inject        pick                           receive
//	hetpipe-fifo     free slot     arrival order                  folded
//	hetpipe-overlap  free slot     arrival order                  overlapped
//	gpipe            wave barrier  arrival order                  folded
//	1f1b, 2bw        free slot     backward-first, <= K-vs fwds   folded
//	interleaved      free slot     same, deepest chunk first      overlapped
//	serving (any)    caller admits arrival order                  from schedule
//
// "gpipe" runs fill-drain waves: a wave of up to Nm minibatches opens only
// when the pipeline is empty, every forward runs to the last stage, and only
// when the whole wave's forwards have finished does the drain start — in
// minibatch order, so the WSP wave-end push still fires after its
// predecessors complete; that is exactly why every stage stashes the whole
// wave's activations and why the pipeline idles during each fill and drain
// ramp. "1f1b" holds at most stage-depth activations, which lets a
// memory-constrained virtual worker admit a larger Nm than FIFO.
// "hetpipe-overlap" is the Section 9 improvement: transfers from a stage
// complete in minibatch order and take constant time per boundary, so compute
// tasks still arrive at each FIFO device queue in minibatch order and
// conditions 1-3 hold unchanged. "interleaved" is Megatron-LM's virtual-stage
// 1F1B over the plan's k*V chunk placement — the fill bubble shrinks by V
// because a GPU starts computing as soon as its first 1/V-sized chunk's input
// arrives. "2bw" is PipeDream-2BW: its divergence from 1f1b is the memory
// model (sched.TwoBW.WeightVersions == 3), not the task graph. Every schedule
// honors the same InjectGate/OnComplete contract, so WSP couples them all.
//
// The package reports steady-state throughput, per-GPU utilization, and an
// optional execution trace (Figure 1). It also states, without running
// anything, a ceiling on the throughput any of its runs can report
// (ThroughputBound: in-flight cap over the round trip of a lone minibatch),
// which core's Nm search uses to skip simulations that cannot win.
//
// A run stops simulating once it repeats. The time table is rounded to
// multiples of sim's quantum (Times), so every time a run computes is an exact
// sum, and a pipeline with none of Config's hooks is a function of its state
// relative to (now, completed). When that state recurs exactly P completions
// later, the run is periodic, and it jumps as many whole periods as its window
// leaves injections for — every pending event, device, ring and counter
// shifted, every skipped completion time written — so it simulates the fill,
// the confirmation, fewer than one period of injections and the drain
// (steady.go). After each completion it records only an O(k) hint of that
// state; the whole state is built where a hint recurs, to open a candidate
// period, and where the candidate comes due, to confirm it word for word. Each Result is bit for bit the fully simulated one; a run with
// an identity TaskTime hook is that full simulation.
// A Runner keeps the pipeline and that scratch from run to run; core's Nm
// search takes every solo measurement on one.
package pipeline

import (
	"fmt"
	"math"
	"slices"

	"hetpipe/internal/hw"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
	"hetpipe/internal/trace"
)

// Config parameterizes one virtual worker's pipeline run.
type Config struct {
	// Plan is the stage assignment from the partitioner.
	Plan *partition.Plan
	// Cluster and Perf are unused: the plan already carries every transfer
	// time. The fields remain for callers that set them.
	Cluster *hw.Cluster
	Perf    *profile.Perf
	// Schedule selects the execution discipline; nil means sched.Default()
	// (hetpipe-fifo, the paper's Section 4 behavior).
	Schedule sched.Schedule
	// Minibatches is the total number of minibatches to process.
	Minibatches int
	// Warmup minibatches are excluded from the throughput measurement.
	Warmup int
	// Trace, when non-nil, records the execution schedule.
	Trace *trace.Trace
	// TaskTime, when non-nil, adjusts the duration of every scheduled stage
	// task of minibatch p on stage s (and of every overlapped transfer, for
	// which s is Link): it receives the schedule's base duration in seconds
	// and returns the one to use. Fault injection (internal/fault) threads
	// straggler slowdowns and crash downtime through this hook; nil means
	// identity, and every schedule produces bit-identical timings with a nil
	// or identity hook.
	TaskTime func(p, s int, base float64) float64
	// InjectGate, when non-nil, is consulted before injecting minibatch p
	// (1-based). Returning false defers the injection until Poke is called;
	// WSP uses this to enforce the clock-distance bound D.
	InjectGate func(p int) bool
	// OnComplete, when non-nil, fires when minibatch p finishes its backward
	// pass on the first stage (the minibatch's completion point).
	OnComplete func(p int, at sim.Time)
}

// Summary is what a run measures of one window.
type Summary struct {
	// Throughput is samples/second measured after warmup.
	Throughput float64
	// Elapsed is the simulated time at the last completion.
	Elapsed sim.Time
	// MaxGPUUtil is the largest per-stage device utilization over the whole
	// run — the Figure 3 metric.
	MaxGPUUtil float64
}

// Result summarizes a pipeline run: its Summary, and what it is the summary
// of.
type Result struct {
	Summary
	// GPUUtil is per-stage device utilization over the whole run; MaxGPUUtil
	// is its largest entry.
	GPUUtil []float64
	// Completions holds each minibatch's completion time, in order.
	Completions []sim.Time
}

// ThroughputBound is a ceiling on the Result.Throughput any run of plan under
// schedule s can report over the window (minibatches, warmup), in closed
// form — nothing is simulated. (Any run whose TaskTime hook shortens no task:
// gates and slowdowns only delay completions.)
//
// Let l be the round trip of a lone minibatch: every forward, backward and
// receive it threads on the K virtual stages, folded or overlapped, i.e. the
// sum of the time table's rows (Times). Let c be the schedule's in-flight cap and C[m] the
// time of the m-th completion. Under slot and under wave injection minibatch
// m+c enters no earlier than C[m] and then needs at least l, so
// C[m+c] >= C[m] + l, and a window of n = minibatches-warmup completions
// spans at least floor(n/c) round trips:
//
//	Throughput <= n*batch / (floor(n/c) * l)
//
// (measured from time zero, warmup == 0, the first round trip counts too:
// ceil(n/c)). A window shorter than c spans no whole round trip and the bound
// is +Inf. It holds for every schedule, interleave degree and heterogeneous
// plan, with equality at Nm = 1; it is the period bound of a pipeline short
// of minibatches, so it is tight below the pipeline's depth and loose on the
// plateau above it, where the bottleneck stage rules instead.
//
// Below sim.Horizon it holds bit for bit, not just in real arithmetic: l and
// every simulated time are exact sums of the table's multiples of
// sim's quantum, so the run's span is at least floor(n/c)*l exactly, and a
// correctly rounded division by the larger of two numbers never gives the
// larger quotient.
func ThroughputBound(plan *partition.Plan, s sched.Schedule, minibatches, warmup int) float64 {
	kv := plan.VirtualStages()
	var trip float64
	for vs := 0; vs < kv; vs++ {
		trip += timesRow(plan, vs).trip()
	}
	c := sched.Or(s).InFlightCap(kv, plan.Nm)
	n := minibatches - warmup
	trips := n / c
	if warmup == 0 {
		trips = (n + c - 1) / c
	}
	if trips == 0 {
		return math.Inf(1)
	}
	return float64(n*plan.Batch) / (float64(trips) * trip)
}

// Pipeline is the live simulation object for one virtual worker: the
// training-side wrapper of an Executor. It owns the gated injection loop
// (free slot or wave), the in-flight accounting, and the result.
type Pipeline struct {
	cfg   Config
	eng   *sim.Engine
	x     *Executor
	nm    int // in-flight cap: Schedule.InFlightCap(k*V, Plan.Nm)
	batch int

	injected  int // minibatches injected so far
	completed int // minibatches fully done
	inflight  int
	finished  []sim.Time

	// Wave injection (Schedule.Inject() == sched.InjectWave): waveFirst and
	// waveSize are the open wave's first 1-based minibatch and size; waveLeft
	// counts members not yet injected (the gate can defer the rest of a
	// wave); waveFwd counts members whose forward reached the end of the
	// pipeline.
	wave                                   bool
	waveFirst, waveSize, waveLeft, waveFwd int

	// runner is the Runner running the pipeline when its run is hook-free,
	// and then fast-forwards it; nil otherwise.
	runner *Runner

	onDone, onEnd func(p int) // complete and forwardLanded, bound once
}

// New builds the pipeline on the engine. Start must be called to begin.
func New(eng *sim.Engine, cfg Config) (*Pipeline, error) {
	pl := new(Pipeline)
	if err := pl.Reset(eng, cfg); err != nil {
		return nil, err
	}
	return pl, nil
}

// Reset makes pl the pipeline New(eng, cfg) builds, in the storage pl already
// has: a kept pipeline (core's warm co-simulation, a Runner's) re-runs without
// rebuilding its devices, rings and tables. The zero Pipeline is ready to
// Reset. eng must be fresh or Reset since the pipeline's last run
// on it, because the executor registers its handlers on it again. On error
// the pipeline is unchanged.
func (pl *Pipeline) Reset(eng *sim.Engine, cfg Config) error {
	if cfg.Plan == nil {
		return fmt.Errorf("pipeline: nil plan")
	}
	if cfg.Minibatches < 1 {
		return fmt.Errorf("pipeline: need at least one minibatch")
	}
	if cfg.Warmup < 0 {
		return fmt.Errorf("pipeline: warmup must be >= 0, got %d", cfg.Warmup)
	}
	if cfg.Warmup >= cfg.Minibatches {
		return fmt.Errorf("pipeline: warmup %d >= total %d", cfg.Warmup, cfg.Minibatches)
	}
	cfg.Schedule = sched.Or(cfg.Schedule)
	if cfg.Plan.InterleaveDegree() > 1 && !cfg.Schedule.SupportsInterleave() {
		return fmt.Errorf("pipeline: schedule %q cannot run an interleaved plan (V=%d)",
			cfg.Schedule.Name(), cfg.Plan.InterleaveDegree())
	}
	if pl.onDone == nil {
		pl.onDone, pl.onEnd, pl.x = pl.complete, pl.forwardLanded, new(Executor)
	}
	*pl = Pipeline{
		cfg:      cfg,
		eng:      eng,
		x:        pl.x,
		nm:       cfg.Schedule.InFlightCap(cfg.Plan.VirtualStages(), cfg.Plan.Nm),
		batch:    cfg.Plan.Batch,
		finished: slices.Grow(pl.finished[:0], cfg.Minibatches),
		wave:     cfg.Schedule.Inject() == sched.InjectWave,
		onDone:   pl.onDone,
		onEnd:    pl.onEnd,
	}
	ec := ExecConfig{
		Times: timesInto(pl.x.times, cfg.Plan), GPUs: len(cfg.Plan.Stages),
		Schedule: cfg.Schedule, InFlight: pl.nm,
		TaskTime: cfg.TaskTime, Trace: cfg.Trace, Done: pl.onDone,
	}
	if pl.wave {
		ec.AtEnd = pl.onEnd
	}
	pl.x.reset(eng, ec)
	return nil
}

// Start injects the initial window of minibatches.
func (pl *Pipeline) Start() { pl.Poke() }

// Poke runs the gated injection loop — the initial fill, gate retries (WSP
// calls it when global state advances), and refills after completions: while
// the schedule's inject decision has room and minibatches remain, consult the
// gate and enter each admitted minibatch; a refused minibatch ends the loop
// until the next Poke. Under wave injection the next wave of up to Nm opens
// only once the pipeline has fully drained.
func (pl *Pipeline) Poke() {
	if pl.wave && pl.waveLeft == 0 && pl.inflight == 0 {
		pl.waveSize = pl.cfg.Minibatches - pl.injected
		if pl.waveSize > pl.nm {
			pl.waveSize = pl.nm
		}
		pl.waveFirst, pl.waveLeft, pl.waveFwd = pl.injected+1, pl.waveSize, 0
	}
	for pl.injected < pl.cfg.Minibatches && pl.room() {
		p := pl.injected + 1 // 1-based minibatch number
		if pl.cfg.InjectGate != nil && !pl.cfg.InjectGate(p) {
			return
		}
		pl.injected++
		pl.inflight++
		if pl.wave {
			pl.waveLeft--
		}
		pl.x.Enter(p)
	}
}

// room is the inject decision: a free in-flight slot, or an unfilled member
// of the open wave.
func (pl *Pipeline) room() bool {
	if pl.wave {
		return pl.waveLeft > 0
	}
	return pl.inflight < pl.nm
}

// forwardLanded is the fill barrier of wave injection: when the wave's last
// forward leaves the last stage, the drain starts. Backwards enter the last
// stage in minibatch order; each stage's FIFO queue keeps them ordered on the
// way up.
//
//hetlint:hotpath
func (pl *Pipeline) forwardLanded(int) {
	if pl.waveFwd++; pl.waveFwd == pl.waveSize {
		for q := pl.waveFirst; q < pl.waveFirst+pl.waveSize; q++ {
			pl.x.backward(q)
		}
	}
}

// InFlight reports how many minibatches are currently in the pipeline.
func (pl *Pipeline) InFlight() int { return pl.inflight }

// complete marks minibatch p done: its backward pass reached stage 0 and the
// virtual worker applied the local update (Section 4's wlocal += up).
//
//hetlint:hotpath
func (pl *Pipeline) complete(p int) {
	pl.completed++
	pl.inflight--
	pl.finished = append(pl.finished, pl.eng.Now())
	if pl.cfg.OnComplete != nil {
		pl.cfg.OnComplete(p, pl.eng.Now())
	}
	pl.Poke()
	if pl.runner != nil {
		pl.runner.settle()
	}
}

// Measure reports the Result.Throughput and Result.Elapsed of a drained run
// over the Config's window. It allocates nothing, so an owner that keeps the
// pipeline from run to run reads its runs for free.
func (pl *Pipeline) Measure() (throughput float64, elapsed sim.Time, err error) {
	n, warmup := pl.cfg.Minibatches, pl.cfg.Warmup
	if pl.completed != n {
		return 0, 0, fmt.Errorf("pipeline: %d of %d minibatches completed (deadlock or gate starvation)",
			pl.completed, n)
	}
	elapsed = pl.finished[len(pl.finished)-1]
	// Steady-state throughput: samples completed after warmup over the time
	// from the warmup-th completion to the last.
	if warmup == 0 {
		return float64(n*pl.batch) / float64(elapsed), elapsed, nil
	}
	span := float64(elapsed - pl.finished[warmup-1])
	if span <= 0 {
		return 0, 0, fmt.Errorf("pipeline: degenerate measurement window")
	}
	return float64((n-warmup)*pl.batch) / span, elapsed, nil
}

// summary measures a drained run.
func (pl *Pipeline) summary() (Summary, error) {
	tp, elapsed, err := pl.Measure()
	if err != nil {
		return Summary{}, err
	}
	s := Summary{Throughput: tp, Elapsed: elapsed}
	for _, dev := range pl.x.Devices() {
		if u := pl.util(dev); u > s.MaxGPUUtil {
			s.MaxGPUUtil = u
		}
	}
	return s, nil
}

// util is a device's utilization over a drained run.
func (pl *Pipeline) util(dev *sim.Resource) float64 {
	return float64(dev.BusyTime()) / float64(pl.finished[len(pl.finished)-1])
}
