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
	// FaultInjections counts fault activations, not plan clauses: one per
	// worker the first time a slowdown covers a minibatch it starts (two
	// disjoint slow clauses on one worker count once), one per worker with a
	// degraded link at its first transfer, one per crash, and one per
	// stalled clock advance. Zero for a fault-free or empty-plan simulation.
	FaultInjections int
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
	return d.SimulateWSPFaults(context.Background(), minibatchesPerVW, warmup, nil, nil, 0)
}

// SimulateWSPFaults is SimulateWSP with cancellation, streaming observation
// and a fault-injection plan (internal/fault). The event loop polls ctx
// between events and aborts with ctx.Err() when it is cancelled or its
// deadline passes, and ob (when non-nil) receives minibatch completions, push
// arrivals, pull completions, and global-clock advances as they happen in
// virtual time, synchronously from the single simulation goroutine. An empty
// or nil plan takes exactly the fault-free code path, so its results are
// bit-identical to SimulateWSP's. A non-empty plan shapes the timing model
// deterministically:
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

// SimulateWSPFaultsOn is SimulateWSPFaults on a caller-owned engine, which
// is Reset first: a warm engine — one that has already grown its event arena
// and heap to a previous simulation's peak — re-simulates without re-growing
// any engine-internal storage. It is NewCoSim(eng).Run once; a caller that
// simulates many scenarios keeps the CoSim instead (internal/sweep keeps one
// per worker goroutine) and re-simulates without rebuilding anything. Results
// are bit-identical to a fresh engine's.
//
// The run costs one pipeline per lock-step group of virtual workers, not one
// per worker (see lockStepGroups); a malformed deployment is an error. A run
// cancelled through ctx returns, beside ctx.Err(), the MultiResult as counted
// up to the stop (Elapsed, Waiting, Idle, Pushes, Pulls, MaxClockDistance,
// FaultInjections; no throughput) — a training run stopped at its target
// reads its synchronization overhead there.
func (d *Deployment) SimulateWSPFaultsOn(ctx context.Context, eng *sim.Engine, minibatchesPerVW, warmup int, ob obs.Func, plan *fault.Plan, checkpointEvery int) (*MultiResult, error) {
	return NewCoSim(eng).Run(ctx, d, minibatchesPerVW, warmup, ob, plan, checkpointEvery)
}

// CoSim is a WSP co-simulation kept warm on one engine. Run simulates a
// deployment as SimulateWSPFaultsOn does and keeps what the run built — each
// lock-step group's pipeline with its executor, devices and ready rings, the
// groups' gate, completion and task-time hooks, the coordinator and the
// registered handlers — to re-initialise for the next run, whatever its
// deployment, instead of building it again: after a first run at least as
// large, a run allocates its MultiResult and its PerVW and nothing else. The
// MultiResult is the caller's; nothing in it is touched by a later run. A
// CoSim is not safe for concurrent use.
type CoSim struct {
	eng    *sim.Engine
	coord  wsp.Coordinator
	pool   []*lockGroup // every group built so far; groups is pool[:len(groups)]
	groups []*lockGroup
	// The engine handlers of a pull and a push landing, bound once and
	// registered again on every run's Reset engine: a is the group's index,
	// and a push carries its wave in b and its sending event in x (exact: the
	// step limit keeps Fired far below 2^53).
	onPull, onPush sim.EventFunc
	pullID, pushID int32

	// The run's inputs and what it counts.
	d               *Deployment
	ob              obs.Func
	params          wsp.Params
	res             *MultiResult
	stalls          fault.Cursor // the cluster's, for the stalls
	checkpointEvery int
}

// NewCoSim returns a co-simulation on eng that has built nothing yet.
func NewCoSim(eng *sim.Engine) *CoSim {
	c := &CoSim{eng: eng}
	c.onPull = func(g, _ int32, _ float64) { c.pulled(c.groups[g]) }
	c.onPush = func(g, wave int32, by float64) { c.pushed(c.groups[g], int(wave), uint64(by)) }
	return c
}

// Engine is the engine the co-simulation runs on, Reset by every Run; a
// caller may run other simulations on it between runs (a sweep's serving
// cells do).
func (c *CoSim) Engine() *sim.Engine { return c.eng }

// Run simulates d as SimulateWSPFaults documents, on the co-simulation's
// engine. A plan materialized for d's worker count is used as it is (see
// fault.Plan.Materialize), so a caller running one plan many times
// materializes it once.
func (c *CoSim) Run(ctx context.Context, d *Deployment, minibatchesPerVW, warmup int, ob obs.Func, plan *fault.Plan, checkpointEvery int) (*MultiResult, error) {
	c.eng.Reset()
	if err := d.check(); err != nil {
		return nil, err
	}
	n := len(d.VWs)
	if checkpointEvery < 0 {
		return nil, fmt.Errorf("core: checkpoint interval must be >= 0, got %d", checkpointEvery)
	}
	fp, err := plan.Materialize(n)
	if err != nil {
		return nil, err
	}
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
	if err := c.coord.Reset(params); err != nil {
		return nil, err
	}
	c.eng.SetStepLimit(uint64(n*minibatchesPerVW)*1000 + 1_000_000)

	c.d, c.ob, c.params, c.res = d, ob, params, &MultiResult{}
	c.stalls, c.checkpointEvery = fp.Cursor(-1), checkpointEvery
	c.pullID, c.pushID = c.eng.Register(c.onPull), c.eng.Register(c.onPush)
	c.lockStepGroups(d, fp)
	for _, g := range c.groups {
		// The group's own pipeline, re-initialised and wired to the WSP
		// protocol. The fault hook exists only on a touched group; every other
		// worker's compute scale is 1.
		cfg := g.cfg
		cfg.Plan, cfg.Schedule, cfg.Minibatches, cfg.Warmup = d.VWs[g.lo].Plan, d.Sys.Schedule, minibatchesPerVW, warmup
		if g.touched {
			cfg.TaskTime = g.task
		}
		if err := g.pipe.Reset(c.eng, cfg); err != nil {
			return nil, err
		}
	}
	for _, g := range c.groups {
		g.pipe.Start()
	}
	if err := c.eng.RunContext(ctx); err != nil {
		if ctx.Err() == nil {
			return nil, err
		}
		// A run its caller stopped still says what it counted up to the stop;
		// throughputs need the whole window and stay empty.
		c.res.Elapsed = float64(c.eng.Now())
		c.res.MaxClockDistance = c.coord.MaxClockDistance()
		return c.res, err
	}
	return c.result(pipeline.Window{Minibatches: minibatchesPerVW, Warmup: warmup})
}

// check rejects a deployment the co-simulation would index out of range or
// dereference nil on — one built by hand or truncated, since Deploy's own are
// well-formed.
func (d *Deployment) check() error {
	n := len(d.VWs)
	switch {
	case n == 0:
		return fmt.Errorf("core: empty deployment")
	case d.Sys == nil:
		return fmt.Errorf("core: deployment has no system")
	case d.Nm < 1:
		return fmt.Errorf("core: deployment Nm must be >= 1, got %d", d.Nm)
	case len(d.PushTime) != n:
		return fmt.Errorf("core: deployment has %d workers but %d push times", n, len(d.PushTime))
	case len(d.PullTime) != n:
		return fmt.Errorf("core: deployment has %d workers but %d pull times", n, len(d.PullTime))
	}
	for w, vp := range d.VWs {
		if vp == nil || vp.Plan == nil {
			return fmt.Errorf("core: deployment worker %d has no plan", w)
		}
		v := vp.Plan.InterleaveDegree()
		for s := range vp.Plan.Stages {
			if got := len(vp.Plan.Stages[s].Chunks); got != v {
				return fmt.Errorf("core: deployment worker %d stage %d holds %d chunks, want %d", w, s, got, v)
			}
		}
	}
	return nil
}

// lockGroup is one lock-step group of a co-simulation: the virtual workers
// lo..hi-1, stepped as a single pipeline whose every effect on the shared
// state is replayed once per member in that order. A CoSim keeps its groups
// from run to run: the pipeline and the hooks wiring it to the protocol,
// which close over the group, are built once; the run's state is zeroed by
// every run.
type lockGroup struct {
	groupRun
	pipe pipeline.Pipeline
	cfg  pipeline.Config                      // the hooks: InjectGate, OnComplete
	task func(p, s int, base float64) float64 // Config.TaskTime, on a touched group
}

// groupRun is a lock-step group's part of one run. It carries what each
// worker used to carry alone: the WSP synchronization state and its first
// worker's fault cursor, inert unless a fault clause names the group (which
// is then always a single worker).
type groupRun struct {
	idx        int32 // position in CoSim.groups
	touched    bool  // fp.Touches(lo); implies hi == lo+1
	lo, hi     int
	push, pull float64 // per-wave PS transfer times, link degradation folded in

	pullDone   int  // highest global clock whose pull transfer completed
	pullGoing  bool // a pull transfer is in flight...
	pullTarget int  // ...for this global clock...
	pullAt     sim.Time
	pullBy     uint64 // ...landing at pullAt, asked for by engine event pullBy
	pullShown  bool   // the push landing with it already replayed its members
	blocked    bool
	blockSince sim.Time
	lastDone   sim.Time // time of the most recent minibatch completion

	cur fault.Cursor // lo's, which reports nothing unless touched
}

// lockStepGroups partitions d's workers into maximal runs of consecutive
// workers that simulate identically, so one pipeline can stand for the run:
// equal executor inputs (pipeline.SameInputs), equal push and pull times
// after link degradation, and no worker-specific clause of the materialized
// fault plan fp naming any of them. Such workers stay in lock step for the
// whole run, bit for bit, not just until a gate binds: everything a gate
// reads is either global (the clock) or equal across the run. The groups are
// the co-simulation's kept ones, reset for this run.
//
// Only neighbours merge. Replaying A,B,A as {A,A},{B} would add the workers'
// waiting times into MultiResult.Waiting, and emit their observer events, in
// a different order than worker order — a different float sum and a different
// stream. Every allocation policy in internal/hw emits equal workers side by
// side, so nothing is lost. PS stalls are cluster-wide and split nothing; a
// group of one is exactly the per-worker simulation.
func (c *CoSim) lockStepGroups(d *Deployment, fp *fault.Plan) {
	n := 0
	for w, vp := range d.VWs {
		push, pull, touched := d.PushTime[w], d.PullTime[w], fp.Touches(w)
		if !touched && n > 0 {
			if last := c.pool[n-1]; !last.touched && last.push == push && last.pull == pull &&
				pipeline.SameInputs(d.VWs[last.lo].Plan, vp.Plan) {
				last.hi = w + 1
				continue
			}
		}
		if n == len(c.pool) {
			c.pool = append(c.pool, c.newGroup())
		}
		s := fp.LinkScale(w) // 1 unless degraded, and x*1 is x bit for bit
		c.pool[n].groupRun = groupRun{idx: int32(n), lo: w, hi: w + 1,
			push: push * s, pull: pull * s, touched: touched, cur: fp.Cursor(w)}
		n++
	}
	c.groups = c.pool[:n]
}

// newGroup builds a group and its hooks.
func (c *CoSim) newGroup() *lockGroup {
	g := &lockGroup{}
	g.cfg.InjectGate = func(mb int) bool { return c.gate(g, mb) }
	g.cfg.OnComplete = func(mb int, at sim.Time) { c.completed(g, mb, at) }
	g.task = func(p, s int, base float64) float64 {
		// The crash charge lands once, on the crashed minibatch's first
		// stage-0 task (its forward) — the worker-local stall.
		scale, charge := g.cur.Task(p, s)
		out := base * scale
		if charge > 0 {
			out += charge + c.replay(g, p)
		}
		return out
	}
	return g
}

func (c *CoSim) emit(e obs.Event) {
	if c.ob != nil {
		e.Backend = "sim"
		e.Time = float64(c.eng.Now())
		c.ob(e)
	}
}

// inject counts and emits the fault activation f reports, if any.
func (c *CoSim) inject(vw int, f string) {
	if f == "" {
		return
	}
	c.res.FaultInjections++
	c.emit(obs.Event{Kind: obs.KindFaultInject, VW: vw, Fault: f})
}

func (c *CoSim) pokeAll() {
	for _, g := range c.groups {
		g.pipe.Poke()
	}
}

// replay is the checkpoint-replay part of group g's crash charge at minibatch
// mb: after its downtime the worker re-executes every minibatch since its last
// checkpoint at its bottleneck-stage pace.
func (c *CoSim) replay(g *lockGroup, mb int) float64 {
	ckptWave := 0
	if c.checkpointEvery > 0 {
		ckptWave = ((mb - 1) / c.d.Nm / c.checkpointEvery) * c.checkpointEvery
	}
	return float64((mb-1)-ckptWave*c.d.Nm) * c.d.VWs[g.lo].Plan.Bottleneck
}

// start admits minibatch mb on every member of g, and on a touched group
// emits the one-shot fault injections owed at that moment.
func (c *CoSim) start(g *lockGroup, mb int) {
	for w := g.lo; w < g.hi; w++ {
		c.coord.Start(w, mb)
	}
	if !g.touched {
		return
	}
	_, slow := g.cur.Slow(mb)
	c.inject(g.lo, slow)
	c.inject(g.lo, g.cur.Crash(mb))
}

// linkInject emits the one-shot injection of a degraded link the first time
// group g's worker uses it.
func (c *CoSim) linkInject(g *lockGroup) {
	_, link := g.cur.Link()
	c.inject(g.lo, link)
}

// gate is group g's injection gate for minibatch mb: a gated wave-end waits
// for the global clock and then for the group's own pull of it.
func (c *CoSim) gate(g *lockGroup, mb int) bool {
	req := c.params.RequiredGlobalClock(mb)
	if req == 0 {
		c.start(g, mb)
		return true
	}
	if c.coord.GlobalClock() >= req {
		if g.pullDone >= req {
			if g.blocked {
				g.blocked = false
				now := c.eng.Now()
				// If the pipeline drained while the gate was closed, the tail
				// of the wait was true idle time (the 18%-of-waiting effect of
				// Section 8.4). One addition per member, never a product: the
				// sums must round as the per-worker run's did.
				idle := g.pipe.InFlight() == 0
				for w := g.lo; w < g.hi; w++ {
					c.res.Waiting += float64(now - g.blockSince)
					if idle {
						c.res.Idle += float64(now - max(g.blockSince, g.lastDone))
					}
				}
			}
			c.start(g, mb)
			return true
		}
		if !g.pullGoing {
			g.pullGoing = true
			c.linkInject(g)
			g.pullTarget = c.coord.GlobalClock()
			g.pullAt, g.pullBy = c.eng.Now()+sim.Time(g.pull), c.eng.Fired()
			c.eng.AfterID(sim.Duration(g.pull), c.pullID, g.idx, 0, 0)
		}
	}
	if !g.blocked {
		g.blocked = true
		g.blockSince = c.eng.Now()
	}
	return false
}

// pulled lands group g's pull.
func (c *CoSim) pulled(g *lockGroup) {
	if !g.pullShown {
		for w := g.lo; w < g.hi; w++ {
			c.pullLanded(g, w)
		}
	}
	g.pullGoing, g.pullShown = false, false
	g.pullDone = g.pullTarget
	g.pipe.Poke()
}

// pullLanded is member w's part of group g's pull landing.
func (c *CoSim) pullLanded(g *lockGroup, w int) {
	c.res.Pulls++
	c.emit(obs.Event{Kind: obs.KindPull, VW: w, Clock: g.pullTarget})
}

// completed is group g's minibatch-completion hook; a wave-end sends the
// wave's push towards the parameter servers.
func (c *CoSim) completed(g *lockGroup, mb int, at sim.Time) {
	g.lastDone = at
	waveEnd := c.params.IsWaveEnd(mb)
	wave := c.params.Wave(mb)
	stall, stallReport := 0.0, ""
	if waveEnd {
		// A stalled shard holds up the advance to clock wave+1, i.e. every
		// wave push that advance is waiting on.
		stall, stallReport = c.stalls.Stall(wave + 1)
	}
	clock := c.coord.GlobalClock()
	for w := g.lo; w < g.hi; w++ {
		c.emit(obs.Event{Kind: obs.KindMinibatch, VW: w, Minibatch: mb, Wave: wave, Clock: clock})
		if f := g.cur.Recover(mb); f != "" {
			// The charged downtime and replay have elapsed inside this
			// completion; the worker is back.
			c.emit(obs.Event{Kind: obs.KindRecover, VW: w, Minibatch: mb, Fault: f})
		}
		if !waveEnd {
			continue
		}
		c.res.Pushes++
		c.linkInject(g)
		c.inject(-1, stallReport)
		stallReport = ""
	}
	if waveEnd {
		c.eng.AfterID(sim.Duration(g.push)+sim.Duration(stall), c.pushID, g.idx, int32(wave), float64(c.eng.Fired()))
	}
}

// pushed lands group g's push of wave, sent by engine event by, at the
// parameter servers. The global clock advances when the slowest worker's push
// of a wave arrives, which reopens gates everywhere.
//
// One completion can send a wave's push and, by freeing the slot of the next
// gated wave-end, ask for a pull; push and pull take equally long by default,
// so the two land at one instant. Each worker alone then saw its push land,
// then its pull, before the next worker's push. The replay keeps that order:
// each member's pull lands right after its push here, and the pull event,
// which fires next, finds its members already replayed.
func (c *CoSim) pushed(g *lockGroup, wave int, by uint64) {
	withPull := g.pullGoing && g.pullBy == by && g.pullAt == c.eng.Now()
	for w := g.lo; w < g.hi; w++ {
		before := c.coord.GlobalClock()
		c.coord.Push(w)
		after := c.coord.GlobalClock()
		c.emit(obs.Event{Kind: obs.KindPush, VW: w, Wave: wave, Clock: after})
		if after > before {
			c.emit(obs.Event{Kind: obs.KindClock, VW: -1, Clock: after})
			c.pokeAll()
		}
		if withPull {
			c.pullLanded(g, w)
		}
	}
	if withPull {
		g.pullShown = true
	}
}

// result folds the groups' pipeline measurements into the MultiResult, one
// member at a time in worker order.
func (c *CoSim) result(w pipeline.Window) (*MultiResult, error) {
	res := c.res
	res.PerVW = make([]float64, 0, len(c.d.VWs))
	for _, g := range c.groups {
		tp, elapsed, err := g.pipe.Measure(w)
		if err != nil {
			return nil, fmt.Errorf("core: VW %d: %w", g.lo, err)
		}
		for w := g.lo; w < g.hi; w++ {
			res.PerVW = append(res.PerVW, tp)
			res.Aggregate += tp
			if e := float64(elapsed); e > res.Elapsed {
				res.Elapsed = e
			}
		}
	}
	res.MaxClockDistance = c.coord.MaxClockDistance()
	return res, nil
}
