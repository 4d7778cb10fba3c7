// Package hetpipe is a reproduction of "HetPipe: Enabling Large DNN Training
// on (Whimpy) Heterogeneous GPU Clusters through Integration of Pipelined
// Model Parallelism and Data Parallelism" (Park et al., USENIX ATC 2020) as
// a Go library over a discrete-event cluster simulator and a live sharded
// parameter-server runtime.
//
// The library models the paper's heterogeneous testbed (four nodes of TITAN
// V / TITAN RTX / GeForce RTX 2060 / Quadro P4000 GPUs), partitions DNN
// models (full VGG-19 and ResNet-152 graphs ship in the model zoo) across
// virtual workers of possibly whimpy GPUs, executes pipelined model
// parallelism within each virtual worker, and synchronizes virtual workers
// through the Wave Synchronous Parallel (WSP) protocol with a configurable
// clock-distance bound D.
//
// The API follows the paper's plan/execute split: New resolves a deployment
// once — model, cluster, allocation, partition plans, Nm — and the resulting
// Deployment is inspectable and runnable many times:
//
//	dep, err := hetpipe.New(
//		hetpipe.WithModel("vgg19"),
//		hetpipe.WithPolicy("ED"),
//		hetpipe.WithLocalPlacement(true),
//	)
//	if err != nil { ... }
//	res, err := dep.Simulate(ctx)  // discrete-event co-simulation
//	sum, err := dep.Train(ctx)     // live sharded-PS runtime, real goroutines/sockets
//
// Both run methods honor context cancellation and deadlines — a cancelled
// live run reaps every worker goroutine, blocked pull, and TCP socket and
// returns ctx.Err() — and stream in-flight progress to an observer attached
// with WithObserver.
//
// Runs tolerate faults: WithFaults attaches a deterministic injection plan
// (straggler slowdowns, worker crashes, shard stalls, link degradations),
// WithCheckpoint sets the checkpoint cadence crash recovery restores from,
// and WithCheckpointPath/WithResumeFrom persist and resume whole runs
// through atomic parameter-server checkpoints. WSP's numerics are
// timing-independent, so faults degrade throughput and exercise recovery
// without ever changing the final weights.
//
// Every functional option and every exported sentinel error
// (ErrUnknownModel, ErrUnknownCluster, ..., ErrBadFaultPlan — all matchable
// with errors.Is) is defined and documented in one place: options.go. The
// options that name the deployment fill in one core.Spec, which New, Horovod,
// cmd/hetserve and every sweep cell resolve the same way; the event and
// serving-result types (Event, ServeResult, LatencySummary, Planning) are the
// backends' own, re-exported by alias, so nothing is copied on the way out.
//
// See examples/ for complete programs (examples/faults walks the
// fault-injection and checkpoint-recovery story), cmd/hetbench for the
// experiment harness, cmd/hetlive for the live runtime and its sim-vs-live
// conformance harness, and cmd/hetsweep for parallel exploration of
// configuration grids (internal/sweep) across the model zoo, the cluster
// catalog, and the fault axis. docs/ARCHITECTURE.md maps the whole system.
package hetpipe

import (
	"context"

	"hetpipe/internal/core"
	"hetpipe/internal/experiment"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/sched"
)

// Result summarizes a simulated HetPipe deployment.
type Result struct {
	// Throughput is the aggregate samples/second across virtual workers.
	Throughput float64
	// PerVW lists each virtual worker's throughput.
	PerVW []float64
	// Nm is the concurrent-minibatch count used (auto-chosen unless WithNm
	// fixed it); SLocal = Nm-1 is the local staleness bound.
	Nm int
	// SGlobal is the WSP global staleness bound for this configuration.
	SGlobal int
	// Waiting and Idle decompose synchronization overhead (seconds summed
	// over virtual workers; idle is the unhidden part).
	Waiting, Idle float64
	// Pushes and Pulls count parameter-server synchronization actions over
	// the simulated run; both shrink as D grows.
	Pushes, Pulls int
	// MaxClockDistance is the largest clock skew observed between virtual
	// workers (bounded by D+1).
	MaxClockDistance int
	// FaultInjections counts activations of the WithFaults plan during the
	// simulation, not its clauses: one per slowed worker (however many slow
	// clauses name it), one per worker with a degraded link, one per crash,
	// one per stalled clock advance; zero for a fault-free run.
	FaultInjections int
	// VirtualWorkers describes each VW's GPU mix.
	VirtualWorkers []string
	// Plans carries the per-VW partition plans for inspection.
	Plans []*PlanView
}

// LiveSummary reports what the live training runtime actually did.
type LiveSummary struct {
	// Minibatches, Pushes, Pulls are protocol-action counts summed over
	// workers.
	Minibatches, Pushes, Pulls int
	// GlobalClock is the final global clock (complete waves per worker).
	GlobalClock int
	// MaxClockDistance is the largest clock spread any shard observed
	// (bounded by D+1).
	MaxClockDistance int
	// FinalAccuracy and FinalLoss evaluate the numeric task on the final
	// server-held weights.
	FinalAccuracy float64
	FinalLoss     float64
	// WallSeconds is the measured wall-clock duration of the worker phase.
	WallSeconds float64
	// Crashes and Recoveries count injected worker crashes (WithFaults) and
	// completed checkpoint recoveries; ReplayedMinibatches counts the work
	// re-executed between a restored checkpoint and its crash point. The
	// final weights are unaffected — recovery replays deterministically.
	Crashes, Recoveries, ReplayedMinibatches int
	// Checkpoints counts worker-state checkpoints taken (WithCheckpoint).
	Checkpoints int
	// ResumedClock is the checkpoint's global clock when the run resumed
	// from a file (WithResumeFrom); 0 otherwise.
	ResumedClock int
}

// PlanView is a read-only view of one virtual worker's partition plan.
type PlanView struct {
	GPUs       []string
	Stages     []StageView
	Bottleneck float64
}

// StageView describes one pipeline stage.
type StageView struct {
	GPU string
	// Layers is the stage's layer envelope [lo, hi). For contiguous plans
	// (interleave degree 1) the stage owns exactly this range; for
	// interleaved plans it only brackets the chunk set — see Chunks.
	Layers [2]int // [lo, hi)
	// Chunks lists the stage's layer ranges, one [lo, hi) pair per chunk in
	// virtual-stage order. Contiguous stages have exactly one chunk.
	Chunks      [][2]int
	ExecTime    float64
	MemoryBytes int64
	MemoryCap   int64
}

// Planning counts the work New did to resolve a deployment — dynamic
// programs solved and carried, solo simulations run, Nm values pruned — as
// the planner itself reports it. The counts depend on the options alone and
// repeat exactly from run to run.
type Planning = core.Planning

func planView(p *partition.Plan) *PlanView {
	v := &PlanView{Bottleneck: p.Bottleneck}
	for i := range p.Stages {
		s := &p.Stages[i]
		v.GPUs = append(v.GPUs, s.GPU.Name())
		chunks := make([][2]int, len(s.Chunks))
		for ci := range s.Chunks {
			chunks[ci] = [2]int{s.Chunks[ci].Lo, s.Chunks[ci].Hi}
		}
		v.Stages = append(v.Stages, StageView{
			GPU:         s.GPU.Name(),
			Layers:      [2]int{s.Lo(), s.Hi()},
			Chunks:      chunks,
			ExecTime:    s.ExecTime(),
			MemoryBytes: s.MemoryBytes,
			MemoryCap:   s.MemoryCap,
		})
	}
	return v
}

// Baseline summarizes the Horovod (all-reduce BSP) comparison point.
type Baseline struct {
	Throughput float64
	Workers    int
	// Excluded lists GPUs whose memory cannot hold the whole model.
	Excluded []string
}

// Horovod evaluates the DP baseline for a model on every GPU of a cataloged
// cluster (empty clusterName means "paper").
func Horovod(modelName, clusterName string, batch int) (*Baseline, error) {
	sys, err := core.Spec{Model: modelName, Cluster: clusterName, Batch: batch}.System()
	if err != nil {
		return nil, err
	}
	hr, err := sys.Horovod(nil)
	if err != nil {
		return nil, err
	}
	b := &Baseline{Throughput: hr.Throughput, Workers: len(hr.Workers)}
	for _, g := range hr.Excluded {
		b.Excluded = append(b.Excluded, g.Name())
	}
	return b, nil
}

// Models lists the model-zoo keys WithModel accepts.
func Models() []string { return model.Names() }

// Clusters lists the cluster-catalog keys WithCluster accepts.
func Clusters() []string { return hw.ClusterNames() }

// Schedules lists the pipeline-schedule names WithSchedule accepts:
// "hetpipe-fifo" (the paper's Section 4 discipline, the default), "gpipe"
// (fill-drain waves), "1f1b" (strict one-forward-one-backward), "2bw"
// (PipeDream-2BW: 1F1B with double-buffered weight versions),
// "hetpipe-overlap" (FIFO with communication/computation overlap), and
// "interleaved" (Megatron-LM virtual stages; pair with WithInterleave).
func Schedules() []string { return sched.Names() }

// ExperimentInfo describes one registered paper-reproduction experiment.
type ExperimentInfo struct {
	// Name is the registry key RunExperiment accepts, e.g. "figure4".
	Name string
	// Paper cites the reproduced artifact, e.g. "Figure 4" or "Section 8.4".
	Paper string
	// Title describes the experiment in one line.
	Title string
}

// ExperimentCatalog lists every paper-reproduction experiment RunExperiment
// accepts (tables, figures, and analyses of Section 8), in name order.
func ExperimentCatalog() []ExperimentInfo {
	defs := experiment.Defs()
	out := make([]ExperimentInfo, 0, len(defs))
	for _, d := range defs {
		out = append(out, ExperimentInfo{Name: d.Name, Paper: d.Paper, Title: d.Title})
	}
	return out
}

// RunExperiment regenerates one paper table or figure and returns its
// formatted report. Every simulation and training run it starts stops when
// ctx is done; RunExperiment then returns ctx.Err() and no report.
func RunExperiment(ctx context.Context, name string) (string, error) {
	r, err := experiment.Run(ctx, name)
	if err != nil {
		return "", err
	}
	return r.String(), nil
}
