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
//
// Replay is also what bounds the servers' memory. A worker's floor is the
// last clock pulled by the program it would restart from — its last
// checkpoint if the fault plan can crash it, the live program otherwise —
// and it never pulls below that again. The floors are a wsp.Clocks ledger:
// whenever raising one lifts its minimum, the run releases every server
// below it (ps.Server.Release), so a server keeps about D+2 clocks (plus the
// checkpoint cadence when a worker can crash) instead of one per wave of the
// run. A run that may replay from minibatch 1 keeps every clock
// (Config.KeepsEveryClock says why).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
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

// KeepsEveryClock reports why a run's servers must keep every clock's
// snapshot, or "" when they may release those below the workers' floors. Two
// things replay from minibatch 1, so reading clock 1 onwards: a worker that
// can crash with no checkpoint cadence, and a run resumed from a persisted
// shard checkpoint — whose file must therefore hold snapshots 0..c.
func (c *Config) KeepsEveryClock() string {
	if c.CheckpointPath != "" {
		return "shard checkpoints are persisted, and a run resumed from one replays every worker from minibatch 1"
	}
	if c.CheckpointEvery == 0 {
		for w := range c.Workers {
			if c.Faults.CrashFor(w) != nil {
				return fmt.Sprintf("worker %d can crash with no checkpoint cadence and would replay from minibatch 1", w)
			}
		}
	}
	return ""
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
	// RetainedSnapshots is the most clock snapshots any shard server holds at
	// the end of the run: about D+2 when the servers could be released below
	// the workers' floors, every clock when Config.KeepsEveryClock.
	RetainedSnapshots int
}

// errCrashed is the self-inflicted failure an injected crash raises; the
// worker's recovery loop catches it and starts the recovering attempt instead
// of poisoning the run.
var errCrashed = errors.New("cluster: worker crashed (injected fault)")

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
	r, err := bringUp(cfg)
	if err != nil {
		return nil, err
	}
	defer r.shutdown()
	// Cancellation takes the path a worker failure takes: closing the servers
	// wakes every blocked pull with a "server closed" error and the workers
	// unwind. The run's error is the bare ctx.Err(), so callers can errors.Is
	// it.
	var cancelled sync.WaitGroup
	cancelled.Add(1)
	stop := context.AfterFunc(ctx, func() {
		defer cancelled.Done()
		r.fail(ctx.Err())
	})
	r.train()
	// Joined before the run's error or its servers' final state is read: a
	// cancellation from here on no longer affects this run.
	if stop() {
		cancelled.Done()
	}
	cancelled.Wait()
	if r.err != nil {
		return nil, r.err
	}
	stats, err := r.stats()
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointPath != "" {
		// Final durable checkpoint at the completed run's clock.
		if err := r.saveServers(); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// run is one live training run: its shard servers, the ways its workers
// reach them, and what the workers share while they train. Its methods are
// Run's seams: bringUp stands the shards up, train launches the workers (each
// worker's train is its attempt-and-recovery loop), stats folds the outcome.
type run struct {
	cfg       Config
	params    wsp.Params
	space     *shardSpace
	placement *ps.Placement
	servers   []*ps.Server
	// local is the one in-process Sharded over servers: in-process workers
	// exchange through it, and the final-weights read goes through it on
	// either transport.
	local *ps.Sharded
	// listeners[i] serves servers[i] at addrs[i] over loopback TCP when
	// Config.TCP; served counts their serve loops.
	listeners []net.Listener
	addrs     []string
	served    sync.WaitGroup
	// resumed is the restored checkpoint's global clock; 0 for a fresh run.
	resumed int
	workers []*worker

	start, end time.Time // the worker phase

	// once guards err, the run's first failure.
	once sync.Once
	err  error

	// obsMu serializes observer calls; clockEmitted is the newest global
	// clock reported.
	obsMu        sync.Mutex
	clockEmitted int
	// stalls is the cluster-wide stall cursor, stepped under stallMu.
	stallMu sync.Mutex
	stalls  fault.Cursor
	// ckptTick wakes the shard checkpointer; nil when no shard checkpoint is
	// persisted at a cadence.
	ckptTick chan struct{}
	// floors is the ledger of the workers' floors — worker w's is the lowest
	// clock it may still pull — whose global clock is the run's floor, the
	// one the servers are released below; under floorMu. It has no workers
	// when the run keeps every clock.
	floorMu sync.Mutex
	floors  wsp.Clocks
}

// bringUp stands a run's shards up — fresh from the task's initial weights,
// or restored from Config.ResumeFrom — with the in-process Sharded over them,
// a loopback listener per server when Config.TCP, and every worker at
// minibatch 1. A run bringUp returns must be shut down.
func bringUp(cfg Config) (*run, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, params: cfg.params()}
	if err := r.params.Validate(); err != nil {
		return nil, err
	}
	// Every worker's program at minibatch 1: the checkpoint its first attempt,
	// and any recovery before the first cadence point, starts from.
	r.workers = make([]*worker, cfg.Workers)
	for id := range r.workers {
		fresh, err := train.NewWorker(cfg.Task, id, r.params, cfg.LR)
		if err != nil {
			return nil, err
		}
		r.workers[id] = &worker{r: r, id: id, ckpt: fresh}
	}
	fp, err := cfg.Faults.Materialize(cfg.Workers)
	if err != nil {
		return nil, err
	}
	// Four named parameter chunks per server. The chunking cannot change a
	// weight bit: every element is folded in (wave, worker) order whatever
	// range it falls in.
	if r.space, err = newShardSpace(cfg.Task.Dim(), 4*cfg.Servers); err != nil {
		return nil, err
	}
	if r.placement, err = ps.RoundRobin(r.space.Keys(), cfg.Servers); err != nil {
		return nil, err
	}
	chunked := r.space.Split(cfg.Task.InitWeights())
	if cfg.ResumeFrom != "" {
		if err := r.restore(chunked); err != nil {
			return nil, err
		}
	} else {
		r.servers = make([]*ps.Server, cfg.Servers)
		for i := range r.servers {
			if r.servers[i], err = ps.NewServer(cfg.Workers); err != nil {
				return nil, err
			}
			for _, key := range r.placement.KeysOn(i) {
				if err := r.servers[i].Register(key, chunked[key]); err != nil {
					return nil, err
				}
			}
		}
	}
	backends := make([]ps.Backend, len(r.servers))
	for i, s := range r.servers {
		backends[i] = s
	}
	if r.local, err = ps.NewSharded(r.placement, backends); err != nil {
		return nil, err
	}

	r.stalls = fp.Cursor(-1)
	if cfg.KeepsEveryClock() == "" {
		r.floors.Reset(cfg.Workers, 0, 0)
	}
	n := len(r.space.Keys())
	for _, vw := range r.workers {
		vw.pushed, vw.cur = r.resumed, fp.Cursor(vw.id)
		vw.crashable = fp.CrashFor(vw.id) != nil
		vw.push = ps.Push{Worker: vw.id, Vecs: make([]tensor.Vector, n)}
		vw.pull = ps.SnapshotPull{Dst: make([]tensor.Vector, n)}
	}

	if cfg.TCP {
		for i, s := range r.servers {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				r.shutdown()
				return nil, fmt.Errorf("cluster: listen for shard %d: %w", i, err)
			}
			r.listeners = append(r.listeners, l)
			r.addrs = append(r.addrs, l.Addr().String())
			r.served.Add(1)
			go func() {
				defer r.served.Done()
				ps.Serve(l, s)
			}()
		}
	}
	return r, nil
}

// restore stands the servers up from the Config.ResumeFrom checkpoint, which
// must describe this exact run: its server and worker counts, and every
// placed key's initial weights (snapshot 0) bit for bit, or the deterministic
// replay would diverge from the recorded prefix.
func (r *run) restore(chunked map[string]tensor.Vector) error {
	cfg := &r.cfg
	ck, err := ps.LoadCheckpoint(cfg.ResumeFrom)
	if err != nil {
		return err
	}
	if len(ck.States) != cfg.Servers {
		return fmt.Errorf("cluster: checkpoint has %d shard servers, run wants %d", len(ck.States), cfg.Servers)
	}
	if got := len(ck.States[0].Clocks); got != cfg.Workers {
		return fmt.Errorf("cluster: checkpoint has %d workers, run wants %d", got, cfg.Workers)
	}
	if r.servers, err = ck.Restore(); err != nil {
		return err
	}
	for i, st := range ck.States {
		for _, key := range r.placement.KeysOn(i) {
			init, ok := st.Snapshots[0][key]
			if !ok {
				return fmt.Errorf("cluster: checkpoint lacks shard %q for server %d (chunk layout mismatch?)", key, i)
			}
			want := chunked[key]
			if len(init) != len(want) {
				return fmt.Errorf("cluster: checkpoint shard %q dim %d, task wants %d", key, len(init), len(want))
			}
			for j := range want {
				if init[j] != want[j] {
					return fmt.Errorf("cluster: checkpoint shard %q initial weights diverge from the task (wrong task or seed?)", key)
				}
			}
		}
	}
	r.resumed = ck.Clock
	if final := r.params.CompleteWaves(cfg.MaxMinibatches); final < r.resumed {
		return fmt.Errorf("cluster: budget of %d waves is below the checkpoint clock %d", final, r.resumed)
	}
	return nil
}

// shutdown closes the TCP listeners and waits for their serve loops, each of
// which returns once its workers have hung up.
func (r *run) shutdown() {
	for _, l := range r.listeners {
		l.Close()
	}
	r.served.Wait()
}

// train launches one goroutine per worker and returns once they have all
// finished, with the shard checkpointer running beside them when
// Config.CheckpointPath is persisted at a cadence.
func (r *run) train() {
	var saved chan struct{}
	if r.cfg.CheckpointPath != "" && r.cfg.CheckpointEvery > 0 {
		r.ckptTick, saved = make(chan struct{}, 1), make(chan struct{})
		go func() {
			defer close(saved)
			for range r.ckptTick {
				if err := r.saveServers(); err != nil {
					r.fail(err)
				}
			}
		}()
	}
	r.start = time.Now()
	var wg sync.WaitGroup
	for _, vw := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := vw.train(); err != nil {
				r.fail(fmt.Errorf("cluster: worker %d: %w", vw.id, err))
			}
		}()
	}
	wg.Wait()
	if saved != nil {
		close(r.ckptTick)
		<-saved
	}
	r.end = time.Now()
}

// stats folds the finished programs, the workers' recovery counters and the
// servers' own counters into Stats, then reads the final weights off the
// servers at the clock a completed run reaches — after their counters, since
// that read is a pull too.
func (r *run) stats() (*Stats, error) {
	st := &Stats{Elapsed: r.end.Sub(r.start), ResumedClock: r.resumed}
	for _, vw := range r.workers {
		st.Minibatches += vw.done.Retired()
		st.Pushes += vw.done.Waves()
		st.Pulls += vw.done.Pulls()
		st.MaxStaleness = max(st.MaxStaleness, vw.done.MaxStaleness())
		st.Crashes += vw.crashes
		st.Recoveries += vw.recoveries
		st.ReplayedMinibatches += vw.replayed
		st.Checkpoints += vw.checkpoints
	}
	for _, s := range r.servers {
		p, q := s.Stats()
		st.ShardPushes += p
		st.ShardPulls += q
		st.ShardFrames += s.FramesServed()
		st.ShardMalformed += s.MalformedRequests()
	}
	st.FinalWeights = tensor.NewVector(r.cfg.Task.Dim())
	views := make([]tensor.Vector, len(r.space.Keys()))
	r.space.SplitInto(st.FinalWeights, views)
	if err := r.local.Exchange(nil, &ps.SnapshotPull{Clock: r.params.CompleteWaves(r.cfg.MaxMinibatches), Dst: views}); err != nil {
		return nil, err
	}
	for _, s := range r.servers {
		st.RetainedSnapshots = max(st.RetainedSnapshots, s.Retained())
	}
	st.GlobalClock, st.MaxClockDistance = serverClocks(r.servers)
	return st, nil
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

// fail records the run's first error and closes the servers, which unblocks
// every peer stuck in a D-bound pull; the "server closed" errors they unwind
// with are not the first.
func (r *run) fail(err error) {
	r.once.Do(func() {
		r.err = err
		for _, s := range r.servers {
			s.Close()
		}
	})
}

// emit serializes observer calls across worker goroutines and stamps events
// with the wall clock. A nil observer costs one nil check. Clock events are
// deduplicated under the same lock: each worker only learns the global clock
// at its own gated pulls, so without the filter a slow worker's later pull
// would replay an older clock value.
func (r *run) emit(e obs.Event) {
	if r.cfg.Observer == nil {
		return
	}
	e.Backend = "live"
	e.Time = time.Since(r.start).Seconds()
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	if e.Kind == obs.KindClock {
		if e.Clock <= r.clockEmitted {
			return
		}
		r.clockEmitted = e.Clock
	}
	r.cfg.Observer(e)
}

// stall is the cluster-wide stall delay held against the advance to clock,
// reported once however many workers sleep for it.
func (r *run) stall(clock int) float64 {
	r.stallMu.Lock()
	delay, report := r.stalls.Stall(clock)
	r.stallMu.Unlock()
	if report != "" {
		r.emit(obs.Event{Kind: obs.KindFaultInject, VW: -1, Clock: clock, Fault: report})
	}
	return delay
}

// saveServers persists a consistent clock-cut checkpoint of the servers. The
// write is atomic (ps.SaveCheckpoint), and a capture that races the shutdown
// path simply fails on the closed servers and is skipped.
func (r *run) saveServers() error {
	ck, err := ps.Capture(r.servers)
	if err != nil {
		return nil // servers closing down — nothing left worth saving
	}
	if err := ps.SaveCheckpoint(r.cfg.CheckpointPath, ck); err != nil {
		return fmt.Errorf("cluster: shard checkpoint: %w", err)
	}
	return nil
}

// raiseFloor raises worker id's floor to clock c and, when that lifts the
// minimum over the workers, releases every server below the new minimum.
// Floors only rise, and nothing pulls below its own, so no pull in flight or
// to come asks for a released clock.
func (r *run) raiseFloor(id, c int) {
	if r.floors.Workers() == 0 {
		return
	}
	r.floorMu.Lock()
	defer r.floorMu.Unlock()
	if r.floors.Raise(id, c) {
		for _, s := range r.servers {
			s.Release(r.floors.GlobalClock())
		}
	}
}

// notifyCkpt asks the shard checkpointer, when it runs, for a checkpoint.
func (r *run) notifyCkpt() {
	if r.ckptTick != nil {
		select {
		case r.ckptTick <- struct{}{}:
		default: // a write is already pending; the next capture covers us
		}
	}
}

// worker is one virtual worker's state across all its attempts: its way to
// the shards, its recovery bookkeeping and its data-plane scratch. Only the
// worker's own goroutine touches it while the run is in flight.
type worker struct {
	r  *run
	id int
	// sh reaches the shards: the run's in-process Sharded, or one over conns,
	// the worker's own TCP clients (a ps.Client serves one caller at a time,
	// so every worker dials its own — how the paper's per-node servers are
	// reached).
	sh    *ps.Sharded
	conns []ps.Backend

	// ckpt is the last checkpoint of the worker's program; before the first
	// cadence point it is the program at minibatch 1.
	ckpt *train.Worker
	// crashable says the fault plan can crash the worker, so it restarts from
	// ckpt and its floor is ckpt's last pull; otherwise the live program's.
	crashable bool
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
	// done is the program of the attempt that completed.
	done *train.Worker

	// Reusable data-plane scratch: push and pull are the two sections of a
	// wave exchange, their vectors per-chunk views in chunk order, which is
	// the placement's key order and so the Sharded layout.
	push ps.Push
	pull ps.SnapshotPull
}

// train is the worker's recovery loop: it connects to the shards and runs
// attempts until one completes. An injected crash ends an attempt with
// errCrashed, and the next attempt restores the last checkpoint and replays;
// the crashed attempt's partial counts are discarded — the restored
// program's counters plus the replay re-count every action exactly once.
func (vw *worker) train() error {
	defer vw.hangup()
	if err := vw.connect(); err != nil {
		return err
	}
	for {
		done, err := vw.attempt()
		if !errors.Is(err, errCrashed) {
			vw.done = done
			return err
		}
	}
}

// connect sets sh: the run's in-process Sharded, or a Sharded over TCP
// clients the worker dials itself.
func (vw *worker) connect() error {
	r := vw.r
	if !r.cfg.TCP {
		vw.sh = r.local
		return nil
	}
	vw.conns = make([]ps.Backend, len(r.addrs))
	for i, addr := range r.addrs {
		c, err := ps.Dial(addr)
		if err != nil {
			return fmt.Errorf("cluster: dial shard %d: %w", i, err)
		}
		vw.conns[i] = c
	}
	var err error
	vw.sh, err = ps.NewSharded(r.placement, vw.conns)
	return err
}

// hangup closes the TCP clients connect dialed.
func (vw *worker) hangup() {
	for _, b := range vw.conns {
		if c, ok := b.(*ps.Client); ok {
			c.Close()
		}
	}
}

// sleepSeconds converts a fault delay in seconds into a wall-clock sleep.
func sleepSeconds(s float64) {
	if s > 0 {
		time.Sleep(time.Duration(s * float64(time.Second)))
	}
}

// checkpointDue reports whether the worker-state checkpoint cadence has come
// round: the pushed-wave count crossed a cadence point since the last capture.
func (vw *worker) checkpointDue(w *train.Worker) bool {
	every := vw.r.cfg.CheckpointEvery
	return every > 0 && w.Waves() > vw.lastCkptWave && w.Waves()%every == 0
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
func (vw *worker) pullAfterPush(w *train.Worker, stalled bool) int {
	next := w.Next()
	if next > vw.r.cfg.MaxMinibatches {
		return 0
	}
	req := w.PullClock()
	if req == 0 {
		return 0
	}
	if !vw.cur.Quiet(next) || vw.checkpointDue(w) || vw.r.cfg.StepTime > 0 || stalled {
		return 0
	}
	return req
}

// notePull hands the clock-req snapshot an exchange has just written into
// w.Weights() to the worker's program, raises the worker's floor when the
// live program is its restart point, and reports the pull.
func (vw *worker) notePull(w *train.Worker, req int) {
	w.Pulled(req)
	if !vw.crashable {
		vw.r.raiseFloor(vw.id, req)
	}
	if req > vw.maxPullClock {
		vw.maxPullClock = req
		// The pull's return proves the global clock reached req — the only
		// moment a live worker learns the global clock without extra traffic.
		vw.r.emit(obs.Event{Kind: obs.KindPull, VW: vw.id, Clock: req})
		vw.r.emit(obs.Event{Kind: obs.KindClock, VW: -1, Clock: req})
	}
}

// retired reports minibatch mb, which w has just retired, and — when that
// ended a wave — pushes the wave's sealed delta.
func (vw *worker) retired(w *train.Worker, mb int) error {
	r, id := vw.r, vw.id
	wave := r.params.Wave(mb)
	if mb > vw.maxRetired {
		vw.maxRetired = mb
		r.emit(obs.Event{Kind: obs.KindMinibatch, VW: id, Minibatch: mb, Wave: wave})
	}
	if !r.params.IsWaveEnd(mb) {
		return nil
	}
	if wave < vw.pushed {
		// Replay: the servers already hold this wave from the crashed attempt
		// (or the resumed checkpoint); re-sending it would double-apply the
		// update.
		return nil
	}
	delay := r.stall(wave + 1)
	sleepSeconds(delay)
	vw.linkSleep()
	// One exchange per shard carries the push and, when the next iteration
	// would do nothing but pull, that pull too. The snapshot chunks land
	// straight in w.Weights(): pull.Dst are per-chunk views of it, so every
	// shard server (or the TCP decoder) writes its slice in place — no merge
	// map, no join allocation.
	r.space.SplitInto(w.Delta(wave), vw.push.Vecs)
	var pull *ps.SnapshotPull
	if req := vw.pullAfterPush(w, delay > 0); req > 0 {
		r.space.SplitInto(w.Weights(), vw.pull.Dst)
		vw.pull.Clock = req
		pull = &vw.pull
	}
	if err := vw.sh.Exchange(&vw.push, pull); err != nil {
		return err
	}
	vw.pushed = wave + 1
	r.emit(obs.Event{Kind: obs.KindPush, VW: id, Wave: wave})
	if pull != nil {
		vw.notePull(w, pull.Clock)
	}
	return nil
}

// linkSleep is what a degraded link costs one transfer; the degradation is
// reported once per run (not per attempt, and independent of whether StepTime
// makes it sleep).
func (vw *worker) linkSleep() {
	scale, report := vw.cur.Link()
	if report != "" {
		vw.r.emit(obs.Event{Kind: obs.KindFaultInject, VW: vw.id, Fault: report})
	}
	sleepSeconds((scale - 1) * vw.r.cfg.StepTime.Seconds())
}

// attempt is one attempt at the worker's training loop: the worker's
// train.Worker program — the same one train.Numerics steps — against real
// servers. Pushes carry one sealed delta per wave, and the D-bound gate is the
// servers' blocking snapshot pull.
//
// An attempt starts from the last checkpoint and replays deterministically:
// pulls re-read clock-versioned snapshots, and pushes of waves the servers
// already hold (pushed) are suppressed — counted, since they are logically
// part of the trajectory, but not re-sent. An injected crash aborts the
// attempt with errCrashed; a completed attempt returns the finished program.
func (vw *worker) attempt() (*train.Worker, error) {
	r, id := vw.r, vw.id
	w := vw.ckpt.Clone()
	for w.Next() <= r.cfg.MaxMinibatches {
		mb := w.Next()
		// Injected crash: fires at a minibatch boundary (never mid-push), at
		// most once. The attempt's local state is abandoned: the worker is down
		// for the charged downtime, then recovers by restoring the last
		// checkpoint in a new attempt and replaying from it.
		if report := vw.cur.Crash(mb); report != "" {
			vw.crashes++
			r.emit(obs.Event{Kind: obs.KindFaultInject, VW: id, Minibatch: mb, Fault: report})
			_, down := vw.cur.Task(mb, 0)
			sleepSeconds(down)
			resume := vw.ckpt.Next()
			vw.recoveries++
			vw.replayed += mb - resume
			r.emit(obs.Event{Kind: obs.KindRecover, VW: id, Minibatch: resume,
				Clock: vw.pushed, Fault: vw.cur.Recover(mb)})
			return nil, errCrashed
		}
		// Worker-state checkpoint at the wave cadence. The state at the top
		// of a loop iteration is self-contained, so any iteration whose
		// pushed-wave count just crossed a cadence point is a valid capture.
		if vw.checkpointDue(w) {
			vw.ckpt = w.Clone()
			vw.lastCkptWave = w.Waves()
			vw.checkpoints++
			if vw.crashable {
				r.raiseFloor(id, vw.ckpt.LastPulled())
			}
			r.notifyCkpt()
		}
		// Emulated compute time, scaled by any straggler slowdown. The
		// injection event is per run, not per attempt — a replay after a
		// crash must not re-report a slowdown that never stopped.
		scale, report := vw.cur.Slow(mb)
		if report != "" {
			r.emit(obs.Event{Kind: obs.KindFaultInject, VW: id, Minibatch: mb, Fault: report})
		}
		sleepSeconds(r.cfg.StepTime.Seconds() * scale)
		// The WSP gate: the last minibatch of wave w may only start once the
		// global clock has reached w-D. Blocking on the servers' snapshot
		// pull IS the wait — every shard holds the worker until its clock
		// arrives, then answers from the same clock boundary.
		if req := w.PullClock(); req > 0 {
			vw.linkSleep()
			// A gate the previous wave's exchange did not already pass (one of
			// pullAfterPush's conditions failed, or that push was suppressed
			// under replay): the same exchange with no push section.
			r.space.SplitInto(w.Weights(), vw.pull.Dst)
			vw.pull.Clock = req
			if err := vw.sh.Exchange(nil, &vw.pull); err != nil {
				return nil, err
			}
			vw.notePull(w, req)
		}
		if mb := w.Inject(); mb > 0 {
			if err := vw.retired(w, mb); err != nil {
				return nil, err
			}
		}
	}
	// End-of-run drain: retire the still-pending tail in order.
	for mb := w.Drain(); mb > 0; mb = w.Drain() {
		if err := vw.retired(w, mb); err != nil {
			return nil, err
		}
	}
	return w, nil
}
