// Package cluster is the live WSP training runtime: N virtual workers run as
// goroutines training a real numeric task against M real parameter-server
// shards (internal/ps), either in-process or over TCP. Where the
// co-simulation (internal/core) models the protocol's timing, this package
// executes its dataflow for real — the clock-distance bound D is enforced by
// each worker blocking on the servers' clock-gated snapshot pull, with no
// central coordinator anywhere. A worker talks to the servers once per wave:
// the push that ends wave w and the gated pull of the next minibatch go out
// as one ps exchange per shard whenever nothing observable lies between them
// (pullAfterPush is that decision, written once), and as the two halves of
// the same exchange otherwise.
//
// The runtime reproduces the simulator's numeric trajectory exactly, because
// both execute the same program: each worker here drives a train.Worker — the
// one definition of the staleness window — and only the gate differs, a
// blocking exchange with real servers where train.Numerics serves the same
// snapshots itself, under the co-simulation's clock or (train.RunWSP) none.
// RunConformance (conformance.go) runs both backends on one
// configuration and asserts they agree on minibatch, push, and pull counts, on
// the D-bound and the staleness bound, and on the final weights.
//
// The runtime is also where fault plans (internal/fault) execute for real:
// straggler slowdowns, shard stalls, and link degradations become wall-clock
// sleeps (WSP numerics are timing-independent, so they change nothing but
// the clock), while crashes kill the worker's local state mid-run. A crashed
// worker recovers by restoring its last checkpoint (taken every
// Config.CheckpointEvery waves) and replaying forward under the same D-bound
// — pulls re-read the servers' clock-versioned snapshots and pushes of waves
// the servers already hold are suppressed — so the recovered trajectory, and
// therefore the final weights, are bit-identical to a fault-free run's.
// Config.CheckpointPath persists consistent clock-cut shard checkpoints
// (ps.Capture) for whole-process recovery, and Config.ResumeFrom restarts a
// run from such a file.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hetpipe/internal/fault"
	"hetpipe/internal/obs"
	"hetpipe/internal/ps"
	"hetpipe/internal/tensor"
	"hetpipe/internal/train"
	"hetpipe/internal/wsp"
)

// Config describes a live training run.
type Config struct {
	// Task is the training objective; gradients must be safe for concurrent
	// calls (train.LogReg and train.MLP are).
	Task train.Task
	// Workers is the number of virtual workers, N — one goroutine each.
	Workers int
	// Servers is the number of parameter-server shard hosts, M.
	Servers int
	// SLocal is the local staleness threshold (Nm-1 concurrent minibatches).
	SLocal int
	// D is the WSP clock-distance bound, enforced by blocking pulls.
	D int
	// LR is the SGD step size.
	LR float64
	// MaxMinibatches bounds each worker's minibatch count. Every worker gets
	// the same budget, which guarantees every blocking pull is eventually
	// satisfiable (no worker waits on a peer that already finished).
	MaxMinibatches int
	// Chunks is the number of named parameter shards spread over the
	// servers; 0 picks 4 per server.
	Chunks int
	// TCP runs every worker<->server interaction over real sockets
	// (ps.Serve / ps.Dial on loopback) instead of in-process calls.
	TCP bool
	// Observer, when non-nil, receives protocol events (minibatch
	// completions, pushes, pulls, observed clock advances, fault injections
	// and recoveries) while the run is in flight. Calls are serialized across
	// workers; Event.Time is wall-clock seconds since the worker phase
	// started.
	Observer obs.Func

	// Faults is the deterministic fault-injection plan (internal/fault)
	// applied to this run; nil or empty runs fault-free. Slowdowns, stalls,
	// and link degradations are wall-clock sleeps; crashes destroy the
	// worker's local state and exercise checkpoint recovery. Faults never
	// change the final weights — only the wall clock and the recovery
	// counters.
	Faults *fault.Plan
	// CheckpointEvery takes a checkpoint of each worker's local state every
	// that many pushed waves (and, with CheckpointPath set, persists a
	// consistent shard-server checkpoint at the same cadence). 0 disables
	// periodic checkpoints: a crashed worker then replays from minibatch 1.
	CheckpointEvery int
	// CheckpointPath, when non-empty, persists ps.SaveCheckpoint files of
	// the shard servers: at every CheckpointEvery cadence point (if any) and
	// once more at the end of a successful run. Each write is atomic and
	// truncated to a consistent clock cut, so the file is always resumable.
	CheckpointPath string
	// ResumeFrom, when non-empty, restores the shard servers from a
	// checkpoint file before training: workers deterministically replay their
	// minibatch streams, re-pushing only the waves at or above the
	// checkpoint's clock, and the run finishes with weights bit-identical to
	// an uninterrupted run of the same budget.
	ResumeFrom string
	// StepTime emulates per-minibatch compute time as a wall-clock sleep;
	// straggler slowdowns multiply it and link degradations scale the
	// per-transfer share. 0 (the default) runs as fast as possible, which
	// keeps timing faults invisible on the wall clock but still exercises
	// crash and recovery paths.
	StepTime time.Duration
}

func (c *Config) validate() error {
	switch {
	case c.Servers < 1:
		return fmt.Errorf("cluster: need at least one server")
	case c.MaxMinibatches < 1:
		return fmt.Errorf("cluster: zero minibatch budget")
	case c.CheckpointEvery < 0:
		return fmt.Errorf("cluster: checkpoint interval must be >= 0")
	case c.StepTime < 0:
		return fmt.Errorf("cluster: step time must be >= 0")
	}
	return nil
}

// params is the run's WSP protocol arithmetic.
func (c *Config) params() wsp.Params {
	return wsp.Params{SLocal: c.SLocal, D: c.D, Workers: c.Workers}
}

// Stats summarizes a live run.
type Stats struct {
	// Minibatches, Pushes, Pulls aggregate the per-worker counts. They are
	// logical protocol counts: a recovered or resumed run reports each
	// minibatch, push, and pull exactly once, as a fault-free run would.
	Minibatches, Pushes, Pulls int
	// FinalWeights is the clock-versioned snapshot at the final global
	// clock: the initial weights plus every pushed wave update, folded in
	// (wave, worker) order — directly comparable with the simulator's
	// RunStats.FinalWeights.
	FinalWeights tensor.Vector
	// GlobalClock is the final global clock (complete waves per worker).
	GlobalClock int
	// MaxClockDistance is the largest clock spread any shard observed; the
	// WSP bound guarantees <= D+1.
	MaxClockDistance int
	// MaxStaleness is the largest number of a peer's updates any minibatch's
	// weights were missing (train.Worker.MaxStaleness over the workers'
	// completing attempts); the WSP bound guarantees <= wsp.Params.SGlobal.
	MaxStaleness int
	// Elapsed is wall-clock runtime of the worker phase.
	Elapsed time.Duration

	// Crashes and Recoveries count injected worker crashes and completed
	// checkpoint recoveries; ReplayedMinibatches counts the minibatches
	// re-executed between a restored checkpoint and its crash point.
	Crashes, Recoveries, ReplayedMinibatches int
	// Checkpoints counts worker-state checkpoints taken across workers.
	Checkpoints int
	// ResumedClock is the shard checkpoint's global clock when the run was
	// started with Config.ResumeFrom; 0 otherwise.
	ResumedClock int

	// ShardPushes and ShardPulls aggregate the shard servers' own operation
	// counters — the data-plane view of the run, as opposed to the logical
	// per-worker counts above (they differ under crash replay, where a
	// re-executed push hits the server but is reported logically once).
	// They stay logical per operation — a wave frame that pushes and pulls is
	// one of each; ShardFrames counts the request frames the TCP transport
	// served, i.e. the run's round trips (zero in process): four per wave per
	// worker on four shards where the push and the gated pull fuse, eight
	// where they cannot. ShardMalformed counts protocol-level malformed TCP
	// requests the transport rejected; it is always zero for in-process runs
	// and for any healthy TCP run.
	ShardPushes, ShardPulls, ShardFrames, ShardMalformed uint64
}

// errCrashed is the self-inflicted failure an injected crash raises; the
// worker wrapper catches it and starts the recovering attempt instead of
// poisoning the run.
var errCrashed = errors.New("cluster: worker crashed (injected fault)")

// workerRec is a worker's recovery bookkeeping. It lives outside runWorker so
// it survives a crash; it is only ever touched by the worker's own goroutine.
type workerRec struct {
	// ckpt is the last checkpoint of the worker's program; before the first
	// cadence point it is the program at minibatch 1.
	ckpt *train.Worker
	// lastCkptWave is the pushed-wave count at the last checkpoint.
	lastCkptWave int
	// pushed is the authoritative count of waves this worker has actually
	// pushed to the servers across all attempts — the clock version replay
	// suppression is keyed on.
	pushed int
	// cur is the worker's fault state: kept across attempts, a replay
	// neither re-fires the crash nor re-reports a fault still in force.
	cur fault.Cursor
	// maxRetired / maxPullClock dedupe observer events across a recovery: a
	// replayed retire or pull is numerically necessary but was already
	// reported to the observer by the crashed attempt.
	maxRetired, maxPullClock int

	crashes, recoveries, replayed, checkpoints int
}

// Run executes a live WSP training run and reports its statistics.
//
// The run can be cancelled or deadlined through ctx: cancellation closes the
// shard servers, which wakes every worker blocked in a D-bound pull (in
// process or over TCP), unwinds all worker goroutines, reaps the TCP
// listeners and their per-connection serve goroutines, and returns ctx.Err().
func Run(ctx context.Context, cfg Config) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	params := cfg.params()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	// Every worker's program at minibatch 1: the checkpoint its first attempt,
	// and any recovery before the first cadence point, starts from.
	recs := make([]*workerRec, cfg.Workers)
	for w := range recs {
		fresh, err := train.NewWorker(cfg.Task, w, params, cfg.LR)
		if err != nil {
			return nil, err
		}
		recs[w] = &workerRec{ckpt: fresh}
	}
	fp, err := cfg.Faults.Materialize(cfg.Workers)
	if err != nil {
		return nil, err
	}
	chunks := cfg.Chunks
	if chunks == 0 {
		chunks = 4 * cfg.Servers
	}
	space, err := newShardSpace(cfg.Task.Dim(), chunks)
	if err != nil {
		return nil, err
	}
	placement, err := ps.RoundRobin(space.Keys(), cfg.Servers)
	if err != nil {
		return nil, err
	}

	// Stand up the shard servers: fresh from the task's initial weights, or
	// restored from a persisted checkpoint (Config.ResumeFrom).
	w0 := cfg.Task.InitWeights()
	chunked := space.Split(w0)
	var servers []*ps.Server
	resumedClock := 0
	// finalClock is the global clock a completed run reaches: every worker
	// pushes exactly its complete waves.
	finalClock := params.CompleteWaves(cfg.MaxMinibatches)
	if cfg.ResumeFrom != "" {
		ck, err := ps.LoadCheckpoint(cfg.ResumeFrom)
		if err != nil {
			return nil, err
		}
		if len(ck.States) != cfg.Servers {
			return nil, fmt.Errorf("cluster: checkpoint has %d shard servers, run wants %d", len(ck.States), cfg.Servers)
		}
		if got := len(ck.States[0].Clocks); got != cfg.Workers {
			return nil, fmt.Errorf("cluster: checkpoint has %d workers, run wants %d", got, cfg.Workers)
		}
		if servers, err = ck.Restore(); err != nil {
			return nil, err
		}
		// The checkpoint must describe this exact task and shard layout:
		// every placed key's initial weights (snapshot 0) must match bit for
		// bit, or the deterministic replay would diverge from the recorded
		// prefix.
		for i, st := range ck.States {
			for _, key := range placement.KeysOn(i) {
				init, ok := st.Snapshots[0][key]
				if !ok {
					return nil, fmt.Errorf("cluster: checkpoint lacks shard %q for server %d (chunk layout mismatch?)", key, i)
				}
				want := chunked[key]
				if len(init) != len(want) {
					return nil, fmt.Errorf("cluster: checkpoint shard %q dim %d, task wants %d", key, len(init), len(want))
				}
				for j := range want {
					if init[j] != want[j] {
						return nil, fmt.Errorf("cluster: checkpoint shard %q initial weights diverge from the task (wrong task or seed?)", key)
					}
				}
			}
		}
		resumedClock = ck.Clock
		if finalClock < resumedClock {
			return nil, fmt.Errorf("cluster: budget of %d waves is below the checkpoint clock %d", finalClock, resumedClock)
		}
	} else {
		servers = make([]*ps.Server, cfg.Servers)
		for i := range servers {
			s, err := ps.NewServer(cfg.Workers)
			if err != nil {
				return nil, err
			}
			for _, key := range placement.KeysOn(i) {
				if err := s.Register(key, chunked[key]); err != nil {
					return nil, err
				}
			}
			servers[i] = s
		}
	}

	// dial hands each worker its own backend set: shared in-process adapters,
	// or per-worker TCP clients (a ps.Client is single-caller by design).
	net, err := newNetwork(servers, cfg.TCP)
	if err != nil {
		return nil, err
	}
	defer net.shutdown()

	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			// Unblock every peer stuck in a D-bound pull; they unwind with
			// "server closed" errors which are suppressed below.
			for _, s := range servers {
				s.Close()
			}
		})
	}

	finished := make([]*train.Worker, cfg.Workers) // each worker's completed program
	start := time.Now()

	// emit serializes observer calls across worker goroutines and stamps
	// events with the wall clock. A nil observer costs one nil check.
	// Clock events are deduplicated under the same lock: each worker only
	// learns the global clock at its own gated pulls, so without the filter
	// a slow worker's later pull would replay an older clock value.
	var (
		obsMu        sync.Mutex
		clockEmitted int
	)
	emit := func(e obs.Event) {
		if cfg.Observer == nil {
			return
		}
		e.Backend = "live"
		e.Time = time.Since(start).Seconds()
		obsMu.Lock()
		defer obsMu.Unlock()
		if e.Kind == obs.KindClock {
			if e.Clock <= clockEmitted {
				return
			}
			clockEmitted = e.Clock
		}
		cfg.Observer(e)
	}

	// stall is the cluster-wide stall delay held against the advance to
	// clock, reported once however many workers sleep for it: one cursor,
	// stepped under stallMu.
	var (
		stallMu sync.Mutex
		stalls  = fp.Cursor(-1)
	)
	stall := func(clock int) float64 {
		stallMu.Lock()
		delay, report := stalls.Stall(clock)
		stallMu.Unlock()
		if report != "" {
			emit(obs.Event{Kind: obs.KindFaultInject, VW: -1, Clock: clock, Fault: report})
		}
		return delay
	}

	// The shard checkpointer persists a consistent clock-cut checkpoint of
	// the servers whenever a worker signals a cadence point, and once more at
	// the end of a successful run. Writes are atomic (ps.SaveCheckpoint), and
	// a capture that races the shutdown path simply fails on the closed
	// servers and is skipped.
	var (
		ckptTick chan struct{}
		ckptDone chan struct{}
	)
	saveServers := func() {
		ck, err := ps.Capture(servers)
		if err != nil {
			return // servers closing down — nothing left worth saving
		}
		if err := ps.SaveCheckpoint(cfg.CheckpointPath, ck); err != nil {
			fail(fmt.Errorf("cluster: shard checkpoint: %w", err))
		}
	}
	if cfg.CheckpointPath != "" && cfg.CheckpointEvery > 0 {
		ckptTick = make(chan struct{}, 1)
		ckptDone = make(chan struct{})
		go func() {
			defer close(ckptDone)
			for range ckptTick {
				saveServers()
			}
		}()
	}
	notifyCkpt := func() {
		if ckptTick != nil {
			select {
			case ckptTick <- struct{}{}:
			default: // a write is already pending; the next capture covers us
			}
		}
	}

	// The context watcher turns cancellation into the same server-close
	// unblocking path worker failures use: every blocked pull wakes with a
	// "server closed" error and the workers unwind. firstErr records the
	// bare ctx.Err() so callers can errors.Is it. The watcher is joined
	// right after the workers, before firstErr or the servers' final state
	// is read — a cancellation from here on no longer affects this run.
	watcherStop := make(chan struct{})
	watcherExited := make(chan struct{})
	go func() {
		defer close(watcherExited)
		select {
		case <-ctx.Done():
			fail(ctx.Err())
		case <-watcherStop:
		}
	}()

	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		rec := recs[w]
		rec.pushed, rec.cur = resumedClock, fp.Cursor(w)
		go func(w int, rec *workerRec) {
			defer wg.Done()
			backends, err := net.dial()
			if err != nil {
				fail(fmt.Errorf("cluster: worker %d: %w", w, err))
				return
			}
			defer net.hangup(backends)
			sh, err := ps.NewSharded(placement, backends)
			if err != nil {
				fail(fmt.Errorf("cluster: worker %d: %w", w, err))
				return
			}
			env := &workerEnv{
				cfg: cfg, id: w, space: space, sh: sh, emit: emit,
				rec: rec, stall: stall, notifyCkpt: notifyCkpt,
			}
			for {
				done, err := env.run()
				if err == nil {
					finished[w] = done
					return
				}
				if errors.Is(err, errCrashed) {
					// Recover: the next attempt restores the last checkpoint and
					// replays. The crashed attempt's partial counts are
					// discarded — the restored program's counters plus the
					// replay re-count every action exactly once.
					continue
				}
				fail(fmt.Errorf("cluster: worker %d: %w", w, err))
				return
			}
		}(w, rec)
	}
	wg.Wait()
	if ckptTick != nil {
		close(ckptTick)
		<-ckptDone
	}
	close(watcherStop)
	<-watcherExited
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	stats := &Stats{Elapsed: elapsed, ResumedClock: resumedClock}
	for _, w := range finished {
		stats.Minibatches += w.Retired()
		stats.Pushes += w.Waves()
		stats.Pulls += w.Pulls()
		stats.MaxStaleness = max(stats.MaxStaleness, w.MaxStaleness())
	}
	for _, rec := range recs {
		stats.Crashes += rec.crashes
		stats.Recoveries += rec.recoveries
		stats.ReplayedMinibatches += rec.replayed
		stats.Checkpoints += rec.checkpoints
	}
	for _, s := range servers {
		p, q := s.Stats()
		stats.ShardPushes += p
		stats.ShardPulls += q
		stats.ShardFrames += s.FramesServed()
		stats.ShardMalformed += s.MalformedRequests()
	}
	backends := make([]ps.Backend, len(servers))
	for i, s := range servers {
		backends[i] = ps.AdaptServer(s)
	}
	sh, err := ps.NewSharded(placement, backends)
	if err != nil {
		return nil, err
	}
	// Read the final state directly off the servers we own, at the clock the
	// run itself must reach (an aborted run returned its error above).
	stats.FinalWeights = tensor.NewVector(cfg.Task.Dim())
	views := make([]tensor.Vector, len(space.Keys()))
	space.SplitInto(stats.FinalWeights, views)
	if err := sh.PullAtInto(views, space.Keys(), finalClock); err != nil {
		return nil, err
	}
	stats.GlobalClock, stats.MaxClockDistance = serverClocks(servers)
	if cfg.CheckpointPath != "" {
		// Final durable checkpoint at the completed run's clock.
		saveServers()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return stats, nil
}

// serverClocks reads a run's clock figures off its shard servers: the global
// clock is the minimum over them (every shard sees every wave, as an empty
// push when it holds none of the keys), the clock distance the largest any
// of them observed.
func serverClocks(servers []*ps.Server) (global, distance int) {
	global = servers[0].GlobalClock()
	for _, s := range servers {
		global = min(global, s.GlobalClock())
		distance = max(distance, s.MaxClockDistance())
	}
	return global, distance
}

// workerEnv bundles what one worker's training loop needs across attempts.
type workerEnv struct {
	cfg        Config
	id         int
	space      *shardSpace
	sh         *ps.Sharded
	emit       obs.Func
	rec        *workerRec
	stall      func(clock int) float64
	notifyCkpt func()

	// Reusable data-plane scratch, persisting across crash-replay attempts:
	// push and pull are the two sections of a wave exchange, their vectors
	// per-chunk views for the ps ordered APIs.
	push ps.Push
	pull ps.SnapshotPull
}

// sleep converts a fault delay in seconds into a wall-clock sleep.
func sleepSeconds(s float64) {
	if s > 0 {
		time.Sleep(time.Duration(s * float64(time.Second)))
	}
}

// checkpointDue reports whether the worker-state checkpoint cadence has come
// round: the pushed-wave count crossed a cadence point since the last capture.
func (e *workerEnv) checkpointDue(w *train.Worker) bool {
	every := e.cfg.CheckpointEvery
	return every > 0 && w.Waves() > e.rec.lastCkptWave && w.Waves()%every == 0
}

// pullAfterPush decides, at a wave end that is really pushed (inside retired,
// the wave already sealed), whether the worker's next word to the servers is
// certain to be the gated pull of the very next minibatch with nothing
// observable in between — and if so returns that pull's clock, so the push
// and the pull can travel as one exchange; 0 otherwise. Everything the top of
// the next iteration could do before its gate has to be ruled out: it must
// exist (retired also runs in the end-of-run drain) and be gated at a clock
// not yet pulled; no crash may be due at it and no worker checkpoint fall due
// (both must see the state between the push and the pull); no fault
// injection may be first reported at it (the cursor is Quiet there); and the
// stall, link and compute sleeps must all be zero — the last two scale
// StepTime — or the push would sit unsent while peers wait for it.
func (e *workerEnv) pullAfterPush(w *train.Worker, stalled bool) int {
	next := w.Next()
	if next > e.cfg.MaxMinibatches {
		return 0
	}
	req := w.PullClock()
	if req == 0 {
		return 0
	}
	if !e.rec.cur.Quiet(next) || e.checkpointDue(w) || e.cfg.StepTime > 0 || stalled {
		return 0
	}
	return req
}

// notePull hands the clock-req snapshot an exchange has just written into
// w.Weights() to the worker's program and reports the pull.
func (e *workerEnv) notePull(w *train.Worker, req int) {
	w.Pulled(req)
	if req > e.rec.maxPullClock {
		e.rec.maxPullClock = req
		// The pull's return proves the global clock reached req — the only
		// moment a live worker learns the global clock without extra traffic.
		e.emit(obs.Event{Kind: obs.KindPull, VW: e.id, Clock: req})
		e.emit(obs.Event{Kind: obs.KindClock, VW: -1, Clock: req})
	}
}

// retired reports minibatch mb, which w has just retired, and — when that
// ended a wave — pushes the wave's sealed delta.
func (e *workerEnv) retired(w *train.Worker, mb int) error {
	id, params := e.id, e.cfg.params()
	wave := params.Wave(mb)
	if mb > e.rec.maxRetired {
		e.rec.maxRetired = mb
		e.emit(obs.Event{Kind: obs.KindMinibatch, VW: id, Minibatch: mb, Wave: wave})
	}
	if !params.IsWaveEnd(mb) {
		return nil
	}
	if wave < e.rec.pushed {
		// Replay: the servers already hold this wave from the crashed attempt
		// (or the resumed checkpoint); re-sending it would double-apply the
		// update.
		return nil
	}
	delay := e.stall(wave + 1)
	sleepSeconds(delay)
	e.linkSleep()
	// One exchange per shard carries the push and, when the next iteration
	// would do nothing but pull, that pull too. The snapshot chunks land
	// straight in w.Weights(): pull.Dst are per-chunk views of it, so every
	// shard server (or the TCP decoder) writes its slice in place — no merge
	// map, no join allocation.
	e.space.SplitInto(w.Delta(wave), e.push.Vecs)
	var pull *ps.SnapshotPull
	if req := e.pullAfterPush(w, delay > 0); req > 0 {
		e.space.SplitInto(w.Weights(), e.pull.Dst)
		e.pull.Clock = req
		pull = &e.pull
	}
	if err := e.sh.Exchange(&e.push, pull); err != nil {
		return err
	}
	e.rec.pushed = wave + 1
	e.emit(obs.Event{Kind: obs.KindPush, VW: id, Wave: wave})
	if pull != nil {
		e.notePull(w, pull.Clock)
	}
	return nil
}

// linkSleep is what a degraded link costs one transfer; the degradation is
// reported once per run (not per attempt, and independent of whether StepTime
// makes it sleep).
func (e *workerEnv) linkSleep() {
	scale, report := e.rec.cur.Link()
	if report != "" {
		e.emit(obs.Event{Kind: obs.KindFaultInject, VW: e.id, Fault: report})
	}
	sleepSeconds((scale - 1) * e.cfg.StepTime.Seconds())
}

// run is one attempt at the worker's training loop: the worker's train.Worker
// program — the same one train.Numerics steps — against real servers.
// Pushes carry one sealed delta per wave, and the D-bound gate is the servers'
// blocking snapshot pull.
//
// An attempt starts from the last checkpoint and replays deterministically:
// pulls re-read clock-versioned snapshots, and pushes of waves the servers
// already hold (rec.pushed) are suppressed — counted, since they are logically
// part of the trajectory, but not re-sent. An injected crash aborts the
// attempt with errCrashed; a completed attempt returns the finished program.
func (e *workerEnv) run() (*train.Worker, error) {
	cfg, id := e.cfg, e.id
	w := e.rec.ckpt.Clone()
	if keys := e.space.Keys(); len(e.push.Vecs) != len(keys) {
		e.push = ps.Push{Worker: id, Keys: keys, Vecs: make([]tensor.Vector, len(keys))}
		e.pull = ps.SnapshotPull{Keys: keys, Dst: make([]tensor.Vector, len(keys))}
	}

	for w.Next() <= cfg.MaxMinibatches {
		mb := w.Next()
		// Injected crash: fires at a minibatch boundary (never mid-push), at
		// most once. The attempt's local state is abandoned: the worker is down
		// for the charged downtime, then recovers by restoring the last
		// checkpoint in a new attempt and replaying from it.
		if report := e.rec.cur.Crash(mb); report != "" {
			e.rec.crashes++
			e.emit(obs.Event{Kind: obs.KindFaultInject, VW: id, Minibatch: mb, Fault: report})
			_, down := e.rec.cur.Task(mb, 0)
			sleepSeconds(down)
			resume := e.rec.ckpt.Next()
			e.rec.recoveries++
			e.rec.replayed += mb - resume
			e.emit(obs.Event{Kind: obs.KindRecover, VW: id, Minibatch: resume,
				Clock: e.rec.pushed, Fault: e.rec.cur.Recover(mb)})
			return nil, errCrashed
		}
		// Worker-state checkpoint at the wave cadence. The state at the top
		// of a loop iteration is self-contained, so any iteration whose
		// pushed-wave count just crossed a cadence point is a valid capture.
		if e.checkpointDue(w) {
			e.rec.ckpt = w.Clone()
			e.rec.lastCkptWave = w.Waves()
			e.rec.checkpoints++
			e.notifyCkpt()
		}
		// Emulated compute time, scaled by any straggler slowdown. The
		// injection event is per run, not per attempt — a replay after a
		// crash must not re-report a slowdown that never stopped.
		scale, report := e.rec.cur.Slow(mb)
		if report != "" {
			e.emit(obs.Event{Kind: obs.KindFaultInject, VW: id, Minibatch: mb, Fault: report})
		}
		sleepSeconds(cfg.StepTime.Seconds() * scale)
		// The WSP gate: the last minibatch of wave w may only start once the
		// global clock has reached w-D. Blocking on the servers' snapshot
		// pull IS the wait — every shard holds the worker until its clock
		// arrives, then answers from the same clock boundary.
		if req := w.PullClock(); req > 0 {
			e.linkSleep()
			// A gate the previous wave's exchange did not already pass (one of
			// pullAfterPush's conditions failed, or that push was suppressed
			// under replay): the same exchange with no push section.
			e.space.SplitInto(w.Weights(), e.pull.Dst)
			e.pull.Clock = req
			if err := e.sh.Exchange(nil, &e.pull); err != nil {
				return nil, err
			}
			e.notePull(w, req)
		}
		if mb := w.Inject(); mb > 0 {
			if err := e.retired(w, mb); err != nil {
				return nil, err
			}
		}
	}
	// End-of-run drain: retire the still-pending tail in order.
	for mb := w.Drain(); mb > 0; mb = w.Drain() {
		if err := e.retired(w, mb); err != nil {
			return nil, err
		}
	}
	return w, nil
}
