package hetpipe

import (
	"cmp"
	"context"
	"fmt"
	"io"

	"hetpipe/internal/cluster"
	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/serve"
	"hetpipe/internal/train"
)

// Deployment is a fully-resolved HetPipe configuration: the model, cluster,
// allocation, per-virtual-worker partition plans, and the chosen Nm, bound
// together once by New. It is the plan/execute split of the paper's Section 5
// deployment flow made explicit: resolution happens exactly once, the result
// is inspectable (Plans, SGlobal, VirtualWorkers), and the deployment can
// then be run any number of times — Simulate drives the discrete-event
// co-simulation, Train drives the live sharded parameter-server runtime —
// each run independently cancellable through its context.
//
// A Deployment is immutable after New and safe for concurrent use: multiple
// Simulate and Train calls may run at the same time.
type Deployment struct {
	set settings
	dep *core.Deployment
	// faults is the parsed WithFaults plan; nil or empty means fault-free.
	faults *fault.Plan
	// traffic is the parsed WithTraffic spec; nil means serving is not
	// configured and Serve reports ErrNoTraffic.
	traffic *serve.Traffic
}

// New resolves a deployment from functional options: the model graph, the
// cluster inventory, the resource allocation (policy or explicit specs), the
// per-virtual-worker partition plans, and the concurrent-minibatch count Nm.
// All validation happens here — unknown names are reported through the
// package's sentinel errors (ErrUnknownModel, ErrUnknownCluster, ...), so
// callers can errors.Is them.
func New(opts ...Option) (*Deployment, error) {
	set := defaultSettings()
	for _, opt := range opts {
		if opt != nil {
			opt(&set)
		}
	}
	if _, ok := train.TaskNamed(set.task); !ok {
		return nil, fmt.Errorf("%w %q (want logreg or mlp)", ErrUnknownTask, set.task)
	}
	if set.minibatches < 0 {
		return nil, fmt.Errorf("hetpipe: minibatches per VW must be >= 0 (0 = default), got %d (WithMinibatchesPerVW)", set.minibatches)
	}
	if set.ckptEvery < 0 {
		return nil, fmt.Errorf("hetpipe: checkpoint interval must be >= 0, got %d (WithCheckpoint)", set.ckptEvery)
	}
	if set.chunks < 0 {
		return nil, fmt.Errorf("hetpipe: chunk count must be >= 0 (0 = 4 per server), got %d (WithChunks)", set.chunks)
	}
	if set.stepTime < 0 {
		return nil, fmt.Errorf("hetpipe: step time must be >= 0, got %v (WithStepTime)", set.stepTime)
	}
	faults, err := fault.Parse(set.faultSpec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFaultPlan, err)
	}
	var traffic *serve.Traffic
	if set.traffic != "" {
		traffic, err = serve.ParseTraffic(set.traffic)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTraffic, err)
		}
	}
	dep, err := set.spec.Resolve()
	if err != nil {
		return nil, err
	}
	// Fault plans name concrete workers; check them against the resolved
	// virtual-worker count here so a bad index fails at New, not mid-run.
	if _, err := faults.Materialize(len(dep.VWs)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFaultPlan, err)
	}
	return &Deployment{set: set, dep: dep, faults: faults, traffic: traffic}, nil
}

// Model reports the deployed model's zoo key, as given to WithModel.
func (d *Deployment) Model() string { return d.set.spec.Model }

// ClusterName reports the cluster-catalog key the deployment resolved
// ("paper" when none was given).
func (d *Deployment) ClusterName() string { return d.set.spec.ClusterName() }

// Batch reports the per-minibatch sample count (default 32), used
// consistently by partitioning, simulation, and the gantt renderer.
func (d *Deployment) Batch() int { return d.dep.Sys.Batch }

// Nm reports the concurrent-minibatch count per virtual worker, resolved
// from WithNm or chosen to maximize throughput.
func (d *Deployment) Nm() int { return d.dep.Nm }

// Schedule reports the pipeline schedule the deployment runs, resolved from
// WithSchedule ("hetpipe-fifo" when none was given).
func (d *Deployment) Schedule() string { return d.dep.ScheduleName() }

// Interleave reports the interleave degree V the deployment's plans were cut
// for (WithInterleave); 1 means the classic contiguous placement.
func (d *Deployment) Interleave() int {
	return max(1, d.set.spec.Interleave)
}

// D reports the WSP clock-distance bound.
func (d *Deployment) D() int { return d.dep.D }

// Faults reports the deployment's fault plan in canonical spec form; ""
// means fault-free.
func (d *Deployment) Faults() string { return d.faults.String() }

// CheckpointEvery reports the checkpoint cadence in waves (0 = disabled).
func (d *Deployment) CheckpointEvery() int { return d.set.ckptEvery }

// SLocal reports the local staleness bound, Nm-1 (Section 4).
func (d *Deployment) SLocal() int { return d.dep.SLocal() }

// SGlobal reports the WSP global staleness bound, (D+1)*Nm + Nm - 2
// (Section 5.2).
func (d *Deployment) SGlobal() int { return d.dep.SGlobal() }

// VirtualWorkers lists each virtual worker's GPU mix as a type string, e.g.
// "VRGQ".
func (d *Deployment) VirtualWorkers() []string {
	out := make([]string, 0, len(d.dep.VWs))
	for _, vp := range d.dep.VWs {
		out = append(out, vp.VW.TypeString())
	}
	return out
}

// Plans returns a read-only view of every virtual worker's partition plan.
func (d *Deployment) Plans() []*PlanView {
	out := make([]*PlanView, 0, len(d.dep.VWs))
	for _, vp := range d.dep.VWs {
		out = append(out, planView(vp.Plan))
	}
	return out
}

// Planning reports what resolving the deployment cost: dynamic programs
// solved and carried, solo simulations run and Nm values pruned.
func (d *Deployment) Planning() Planning { return d.dep.Planning }

// Simulate runs the deployment through the discrete-event co-simulation and
// reports throughput, staleness bounds, and synchronization overhead. The
// run is aborted with ctx.Err() when ctx is cancelled or its deadline
// passes; a configured observer (WithObserver) streams events in virtual
// time while the run is in flight. Simulate may be called many times; runs
// are deterministic and independent.
func (d *Deployment) Simulate(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mr, err := d.dep.Simulate(ctx, core.SimOptions{
		Minibatches:     d.set.minibatches,
		Observer:        d.set.observer,
		Faults:          d.faults,
		CheckpointEvery: d.set.ckptEvery,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Throughput:       mr.Aggregate,
		PerVW:            mr.PerVW,
		Nm:               d.dep.Nm,
		SGlobal:          d.dep.SGlobal(),
		Waiting:          mr.Waiting,
		Idle:             mr.Idle,
		Pushes:           mr.Pushes,
		Pulls:            mr.Pulls,
		MaxClockDistance: mr.MaxClockDistance,
		FaultInjections:  mr.FaultInjections,
	}
	res.VirtualWorkers = d.VirtualWorkers()
	res.Plans = d.Plans()
	return res, nil
}

// newTask instantiates the live backend's training task from the settings.
// Task names are validated in New, so an error here is a task-construction
// failure, not a lookup failure.
func (d *Deployment) newTask() (train.Task, error) {
	build, _ := train.TaskNamed(d.set.task)
	return build(d.set.seed)
}

// Train executes the deployment's WSP schedule on the live sharded
// parameter-server runtime: one goroutine per virtual worker training a real
// numeric task (WithTrainTask) against one shard host per cluster node, with
// the clock-distance bound D enforced by blocking pulls, in process or over
// TCP (WithTCP). Cancelling ctx aborts the run cleanly — every worker
// goroutine, blocked pull, TCP connection, and listener is reaped — and
// Train returns ctx.Err(). A configured observer streams protocol events in
// wall-clock time. Train may be called many times; each run stands up and
// tears down its own servers.
func (d *Deployment) Train(ctx context.Context) (*LiveSummary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	task, err := d.newTask()
	if err != nil {
		return nil, err
	}
	live, err := cluster.Run(ctx, cluster.Config{
		Task:            task,
		Workers:         len(d.dep.VWs),
		Servers:         len(d.dep.Sys.Cluster.Nodes), // one PS shard host per node, as deployed in the paper
		SLocal:          d.dep.Nm - 1,
		D:               d.dep.D,
		LR:              d.set.lr,
		MaxMinibatches:  cmp.Or(d.set.minibatches, d.dep.DefaultMinibatches()),
		Chunks:          d.set.chunks,
		TCP:             d.set.tcp,
		Observer:        d.set.observer,
		Faults:          d.faults,
		CheckpointEvery: d.set.ckptEvery,
		CheckpointPath:  d.set.ckptPath,
		ResumeFrom:      d.set.resume,
		StepTime:        d.set.stepTime,
	})
	if err != nil {
		return nil, err
	}
	return &LiveSummary{
		Minibatches:         live.Minibatches,
		Pushes:              live.Pushes,
		Pulls:               live.Pulls,
		GlobalClock:         live.GlobalClock,
		MaxClockDistance:    live.MaxClockDistance,
		FinalAccuracy:       task.Accuracy(live.FinalWeights),
		FinalLoss:           task.Loss(live.FinalWeights),
		WallSeconds:         live.Elapsed.Seconds(),
		Crashes:             live.Crashes,
		Recoveries:          live.Recoveries,
		ReplayedMinibatches: live.ReplayedMinibatches,
		Checkpoints:         live.Checkpoints,
		ResumedClock:        live.ResumedClock,
	}, nil
}

// Gantt simulates virtual worker vw's pipeline alone and renders its
// schedule as an ASCII chart (the Figure 1 view), using the deployment's own
// partition plan, schedule, and batch size — the batch set through WithBatch
// (default 32) rather than a hard-coded one. width is the chart width in
// columns; minibatches <= 0 defaults to 4*Nm. Every rendered minibatch
// appears in the chart.
func (d *Deployment) Gantt(vw, minibatches, width int) (string, error) {
	tr, err := d.dep.SoloTrace(vw, minibatches)
	if err != nil {
		return "", err
	}
	return tr.Gantt(width), nil
}

// WriteChromeTrace simulates virtual worker vw's pipeline alone (like Gantt)
// and writes the schedule as chrome://tracing / Perfetto JSON: one thread
// per stage, one complete event per forward, backward, and (under the
// overlap schedule) transfer span. minibatches <= 0 defaults to 4*Nm.
func (d *Deployment) WriteChromeTrace(w io.Writer, vw, minibatches int) error {
	tr, err := d.dep.SoloTrace(vw, minibatches)
	if err != nil {
		return err
	}
	return tr.WriteChromeTrace(w)
}
