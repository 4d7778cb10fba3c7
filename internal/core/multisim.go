package core

import (
	"context"
	"fmt"

	"hetpipe/internal/fault"
	"hetpipe/internal/obs"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/sim"
	"hetpipe/internal/wsp"
)

// MultiResult summarizes a data-parallel HetPipe simulation.
type MultiResult struct {
	// Aggregate is the cluster-wide steady-state throughput (samples/sec).
	Aggregate float64
	// PerVW is each virtual worker's measured throughput.
	PerVW []float64
	// Elapsed is the simulated time at the last completion.
	Elapsed float64
	// Waiting is the total time injections were gated on the global clock
	// (the Section 8.4 waiting-time metric), summed over virtual workers.
	Waiting float64
	// Idle is the portion of Waiting during which a virtual worker's
	// pipeline had fully drained (no minibatch in flight).
	Idle float64
	// Pushes counts wave pushes to the parameter servers.
	Pushes int
	// Pulls counts completed pull transfers of the global weights.
	Pulls int
	// MaxClockDistance is the largest clock skew observed.
	MaxClockDistance int
	// FaultInjections counts fault-plan entries that took effect during the
	// run (zero for a fault-free or empty-plan simulation).
	FaultInjections int
}

// vwSync carries the per-VW synchronization state of the multi-VW run.
type vwSync struct {
	pullDone   int  // highest global clock whose pull transfer completed
	pullGoing  bool // a pull transfer is in flight
	blockSince sim.Time
	blocked    bool
	lastDone   sim.Time // time of the VW's most recent completion
}

// DefaultMinibatches returns the simulation budget used when a caller does
// not specify one: 24 waves, raised for large D so the budget always meets
// SimulateWSP's (D+2)-wave minimum.
func (d *Deployment) DefaultMinibatches() int {
	waves := 24
	if min := d.D + 2; min > waves {
		waves = min
	}
	return waves * d.Nm
}

// WithD returns a copy of the deployment under a different clock-distance
// bound. Partition plans, Nm, and the parameter-sync transfer times are all
// D-independent, so the copy shares them with the receiver (they are
// read-only during simulation); only the staleness bounds and the WSP gating
// of subsequent simulations change. This is what lets a sweep resolve one
// deployment per (model, cluster, policy, placement, Nm, batch) family and
// reuse it across every D value of the grid.
func (d *Deployment) WithD(dd int) (*Deployment, error) {
	if dd < 0 {
		return nil, fmt.Errorf("core: D must be >= 0")
	}
	c := *d
	c.D = dd
	return &c, nil
}

// SimulateWSP runs all virtual workers' pipelines on one discrete-event
// engine, coupled through the WSP protocol: per-wave pushes arrive at the
// parameter servers after the push transfer time, the global clock advances
// when the slowest push of a wave arrives, and a gated wave-end minibatch
// additionally waits for its pull transfer. Each virtual worker processes
// minibatchesPerVW minibatches; warmup are excluded from throughput (warmup
// is clamped below the budget, so a deliberately short simulation still
// leaves a measurement window).
func (d *Deployment) SimulateWSP(minibatchesPerVW, warmup int) (*MultiResult, error) {
	return d.SimulateWSPContext(context.Background(), minibatchesPerVW, warmup, nil)
}

// SimulateWSPContext is SimulateWSP with cancellation and streaming
// observation: the event loop polls ctx between events and aborts with
// ctx.Err() when it is cancelled or its deadline passes, and ob (when
// non-nil) receives minibatch completions, push arrivals, pull completions,
// and global-clock advances as they happen in virtual time. The observer is
// called synchronously from the single simulation goroutine.
func (d *Deployment) SimulateWSPContext(ctx context.Context, minibatchesPerVW, warmup int, ob obs.Func) (*MultiResult, error) {
	return d.SimulateWSPFaults(ctx, minibatchesPerVW, warmup, ob, nil, 0)
}

// SimulateWSPFaults is SimulateWSPContext under a fault-injection plan
// (internal/fault). An empty or nil plan takes exactly the fault-free code
// path, so its results are bit-identical to SimulateWSPContext's. A non-empty
// plan shapes the timing model deterministically:
//
//   - a Slowdown multiplies the affected virtual worker's stage-task times
//     over its minibatch range (via pipeline.Config.TaskTime);
//   - a LinkDegrade multiplies the worker's per-wave push and pull transfer
//     times;
//   - a PSStall delays the arrival of every wave push that the stalled clock
//     advance is waiting on;
//   - a Crash charges the crashed worker's first stage task of the crash
//     minibatch with the downtime plus the checkpoint-replay time —
//     (AtMinibatch-1 minus the last checkpoint boundary) minibatches at the
//     worker's bottleneck stage time, where checkpoints sit every
//     checkpointEvery waves (0 = no checkpoints: replay from minibatch 1).
//     In-flight work of other stages is not re-simulated; the crash is a
//     worker-local stall, which is the first-order throughput effect.
//
// Because WSP numerics are timing-independent, faults never change what a
// matching live run computes — only when; the live runtime (internal/cluster)
// executes the same plan's crashes for real and recovers from checkpoints.
// Fault activations are emitted to ob as KindFaultInject/KindRecover events
// and counted in MultiResult.FaultInjections.
func (d *Deployment) SimulateWSPFaults(ctx context.Context, minibatchesPerVW, warmup int, ob obs.Func, plan *fault.Plan, checkpointEvery int) (*MultiResult, error) {
	return d.SimulateWSPFaultsOn(ctx, sim.New(), minibatchesPerVW, warmup, ob, plan, checkpointEvery)
}

// SimulateWSPFaultsOn is SimulateWSPFaults on a caller-owned engine. The
// engine is Reset first, so a warm engine — one that has already grown its
// event arena and heap to a previous simulation's peak — re-simulates without
// re-growing any engine-internal storage. Callers that sweep many scenarios
// (internal/sweep keeps one engine per worker goroutine) amortize those
// allocations across the whole sweep; results are bit-identical to a fresh
// engine's.
func (d *Deployment) SimulateWSPFaultsOn(ctx context.Context, eng *sim.Engine, minibatchesPerVW, warmup int, ob obs.Func, plan *fault.Plan, checkpointEvery int) (*MultiResult, error) {
	eng.Reset()
	n := len(d.VWs)
	if n == 0 {
		return nil, fmt.Errorf("core: empty deployment")
	}
	if checkpointEvery < 0 {
		return nil, fmt.Errorf("core: checkpoint interval must be >= 0, got %d", checkpointEvery)
	}
	fp, err := plan.Materialize(n)
	if err != nil {
		return nil, err
	}
	faulty := !fp.Empty()
	// Every virtual worker must finish on a wave boundary, or its peers
	// would wait forever on a push that never comes. Round up before the
	// minimum check so a budget the round-up satisfies is not rejected.
	if rem := minibatchesPerVW % d.Nm; rem != 0 {
		minibatchesPerVW += d.Nm - rem
	}
	if minibatchesPerVW < d.Nm*(d.D+2) {
		return nil, fmt.Errorf("core: need at least %d minibatches per VW to exercise WSP", d.Nm*(d.D+2))
	}
	if warmup >= minibatchesPerVW {
		warmup = minibatchesPerVW / 2
	}
	params := wsp.Params{SLocal: d.SLocal(), D: d.D, Workers: n}
	coord, err := wsp.NewCoordinator(params)
	if err != nil {
		return nil, err
	}
	eng.SetStepLimit(uint64(n*minibatchesPerVW)*1000 + 1_000_000)

	res := &MultiResult{}
	syncs := make([]*vwSync, n)
	for i := range syncs {
		syncs[i] = &vwSync{}
	}
	pipes := make([]*pipeline.Pipeline, n)

	emit := func(e obs.Event) {
		if ob != nil {
			e.Backend = "sim"
			e.Time = float64(eng.Now())
			ob(e)
		}
	}

	pokeAll := func() {
		for _, p := range pipes {
			if p != nil {
				p.Poke()
			}
		}
	}

	// Fault bookkeeping: per-VW transfer times with link degradations folded
	// in, one-shot injection emissions, and the crash timing model. All of it
	// is inert (and the hooks nil) for an empty plan, so the fault-free path
	// is byte-for-byte the pre-fault simulation.
	pushT := append([]float64(nil), d.PushTime...)
	pullT := append([]float64(nil), d.PullTime...)
	var (
		crashes      = make([]*fault.Crash, n)
		slowEmitted  = make([]bool, n)
		linkEmitted  = make([]bool, n)
		crashCharged = make([]bool, n)
		stallEmitted = make(map[int]bool)
	)
	inject := func(vw int, f string) {
		res.FaultInjections++
		emit(obs.Event{Kind: obs.KindFaultInject, VW: vw, Fault: f})
	}
	if faulty {
		for w := 0; w < n; w++ {
			crashes[w] = fp.CrashFor(w)
			if s := fp.LinkScale(w); s > 1 {
				pushT[w] *= s
				pullT[w] *= s
			}
		}
	}
	// crashExtra is the downtime-plus-replay charge of worker w's crash: the
	// worker is down for the crash downtime and then re-executes every
	// minibatch since its last checkpoint at its bottleneck-stage pace.
	crashExtra := func(w int) float64 {
		c := crashes[w]
		ckptWave := 0
		if checkpointEvery > 0 {
			ckptWave = ((c.AtMinibatch - 1) / d.Nm / checkpointEvery) * checkpointEvery
		}
		replay := float64((c.AtMinibatch-1)-ckptWave*d.Nm) * d.VWs[w].Plan.Bottleneck
		return fault.CrashDowntime(c) + replay
	}
	// started emits the one-shot fault-injection events owed at the moment
	// minibatch mb of VW vw is admitted into the pipeline.
	started := func(vw, mb int) {
		if !faulty {
			return
		}
		if sc := fp.ComputeScale(vw, mb); sc > 1 && !slowEmitted[vw] {
			slowEmitted[vw] = true
			inject(vw, fmt.Sprintf("slow:w%d:x%g", vw, sc))
		}
		if c := crashes[vw]; c != nil && mb == c.AtMinibatch {
			inject(vw, fmt.Sprintf("crash:w%d:mb%d", vw, mb))
		}
	}
	linkInject := func(vw int) {
		if faulty && !linkEmitted[vw] {
			if s := fp.LinkScale(vw); s > 1 {
				linkEmitted[vw] = true
				inject(vw, fmt.Sprintf("link:w%d:x%g", vw, s))
			}
		}
	}

	for w := 0; w < n; w++ {
		w := w
		st := syncs[w]
		crash := crashes[w]
		var taskTime func(p, s int, base float64) float64
		if faulty {
			taskTime = func(p, s int, base float64) float64 {
				out := base * fp.ComputeScale(w, p)
				// The crash charge lands once, on the crashed minibatch's
				// first stage-0 task (its forward) — the worker-local stall.
				if crash != nil && p == crash.AtMinibatch && s == 0 && !crashCharged[w] {
					crashCharged[w] = true
					out += crashExtra(w)
				}
				return out
			}
		}
		cfg := pipeline.Config{
			Plan:        d.VWs[w].Plan,
			Schedule:    d.Sys.Schedule,
			Minibatches: minibatchesPerVW,
			Warmup:      warmup,
			TaskTime:    taskTime,
			InjectGate: func(mb int) bool {
				req := params.RequiredGlobalClock(mb)
				if req == 0 {
					coord.Start(w, mb)
					started(w, mb)
					return true
				}
				if coord.GlobalClock() >= req {
					if st.pullDone >= req {
						if st.blocked {
							res.Waiting += float64(eng.Now() - st.blockSince)
							if pipes[w] != nil && pipes[w].InFlight() == 0 {
								// The pipeline drained while the gate was
								// closed; the tail of the wait was true
								// idle time (the 18%-of-waiting effect of
								// Section 8.4).
								res.Idle += float64(eng.Now() - maxTime(st.blockSince, st.lastDone))
							}
							st.blocked = false
						}
						coord.Start(w, mb)
						started(w, mb)
						return true
					}
					if !st.pullGoing {
						st.pullGoing = true
						linkInject(w)
						target := coord.GlobalClock()
						eng.After(sim.Duration(pullT[w]), "pull", func() {
							st.pullGoing = false
							st.pullDone = target
							res.Pulls++
							emit(obs.Event{Kind: obs.KindPull, VW: w, Clock: target})
							pipes[w].Poke()
						})
					}
				}
				if !st.blocked {
					st.blocked = true
					st.blockSince = eng.Now()
				}
				return false
			},
			OnComplete: func(mb int, at sim.Time) {
				st.lastDone = at
				emit(obs.Event{Kind: obs.KindMinibatch, VW: w, Minibatch: mb, Wave: params.Wave(mb), Clock: coord.GlobalClock()})
				if crash != nil && mb == crash.AtMinibatch {
					// The charged downtime and replay have elapsed inside this
					// completion; the worker is back.
					emit(obs.Event{Kind: obs.KindRecover, VW: w, Minibatch: mb, Fault: fmt.Sprintf("crash:w%d:mb%d", w, mb)})
				}
				if params.IsWaveEnd(mb) {
					res.Pushes++
					wave := params.Wave(mb)
					linkInject(w)
					delay := sim.Duration(pushT[w])
					if faulty {
						if stall := fp.StallDelay(wave + 1); stall > 0 {
							// The stalled shard holds up the advance to clock
							// wave+1, i.e. every wave push it is waiting on.
							delay += sim.Duration(stall)
							if !stallEmitted[wave+1] {
								stallEmitted[wave+1] = true
								inject(-1, fmt.Sprintf("stall:c%d:%g", wave+1, stall))
							}
						}
					}
					eng.After(delay, "push", func() {
						before := coord.GlobalClock()
						coord.Push(w)
						after := coord.GlobalClock()
						emit(obs.Event{Kind: obs.KindPush, VW: w, Wave: wave, Clock: after})
						if after > before {
							emit(obs.Event{Kind: obs.KindClock, VW: -1, Clock: after})
							pokeAll()
						}
					})
				}
			},
		}
		p, err := pipeline.New(eng, cfg)
		if err != nil {
			return nil, err
		}
		pipes[w] = p
	}
	for _, p := range pipes {
		p.Start()
	}
	if err := eng.RunContext(ctx); err != nil {
		return nil, err
	}
	for w, p := range pipes {
		r, err := p.Result()
		if err != nil {
			return nil, fmt.Errorf("core: VW %d: %w", w, err)
		}
		res.PerVW = append(res.PerVW, r.Throughput)
		res.Aggregate += r.Throughput
		if e := float64(r.Elapsed); e > res.Elapsed {
			res.Elapsed = e
		}
	}
	res.MaxClockDistance = coord.MaxClockDistance()
	return res, nil
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
