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

// vwSync carries the per-VW synchronization state of the reference run.
type vwSync struct {
	pullDone   int  // highest global clock whose pull transfer completed
	pullGoing  bool // a pull transfer is in flight
	blockSince sim.Time
	blocked    bool
	lastDone   sim.Time // time of the VW's most recent completion
}

// referenceSimulateWSP is SimulateWSPFaultsOn as it stood before lock-step
// groups existed, verbatim but for its push and pull events becoming
// registered handlers: one pipeline, one vwSync, one pull and one push event
// per virtual worker. The grouped co-simulation must equal it field for
// field and observer event for observer event (cosim_test.go).
func referenceSimulateWSP(ctx context.Context, d *Deployment, eng *sim.Engine, minibatchesPerVW, warmup int, ob obs.Func, plan *fault.Plan, checkpointEvery int) (*MultiResult, error) {
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
		down := c.Downtime
		if down == 0 {
			down = fault.DefaultCrashDowntime
		}
		return down + replay
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
	// Worker w's pull of global clock target lands.
	pullID := eng.Register(func(w, target int32, _ float64) {
		st := syncs[w]
		st.pullGoing = false
		st.pullDone = int(target)
		res.Pulls++
		emit(obs.Event{Kind: obs.KindPull, VW: int(w), Clock: int(target)})
		pipes[w].Poke()
	})
	// Worker w's push of wave lands.
	pushID := eng.Register(func(w, wave int32, _ float64) {
		before := coord.GlobalClock()
		coord.Push(int(w))
		after := coord.GlobalClock()
		emit(obs.Event{Kind: obs.KindPush, VW: int(w), Wave: int(wave), Clock: after})
		if after > before {
			emit(obs.Event{Kind: obs.KindClock, VW: -1, Clock: after})
			pokeAll()
		}
	})

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
						eng.AfterID(sim.Duration(pullT[w]), pullID, int32(w), int32(coord.GlobalClock()), 0)
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
					eng.AfterID(delay, pushID, int32(w), int32(wave), 0)
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
		tp, elapsed, err := p.Measure(pipeline.Window{Minibatches: minibatchesPerVW, Warmup: warmup})
		if err != nil {
			return nil, fmt.Errorf("core: VW %d: %w", w, err)
		}
		res.PerVW = append(res.PerVW, tp)
		res.Aggregate += tp
		if e := float64(elapsed); e > res.Elapsed {
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
