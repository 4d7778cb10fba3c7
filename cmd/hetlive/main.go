// Command hetlive runs WSP training for real: virtual workers as goroutines
// against real parameter-server shards (internal/cluster), with the
// clock-distance bound D enforced by blocking pulls on the servers. Ctrl-C
// cancels a run in flight — every worker goroutine and socket is reaped.
//
// Three modes:
//
//   - Conformance (the default): runs one protocol-level configuration
//     through both the simulator's timing-free numerics (train.RunWSP: the
//     weights never depend on a clock, so none is run) and the live runtime and
//     prints the differential-conformance report — matching
//     minibatch/push/pull counts, the D-bound, the observed staleness against
//     sglobal, and bit-identical final weights.
//   - Raw (-conform=false): the live runtime alone, with explicit worker and
//     shard counts.
//   - Deploy (-deploy): resolves a real model deployment through the public
//     API (hetpipe.New) and executes it on the live runtime
//     (Deployment.Train), streaming per-wave progress with -progress.
//
// Usage:
//
//	hetlive                                  # 4 workers, 2 shards, conformance on
//	hetlive -task mlp -workers 3 -shards 2 -d 1 -nm 4
//	hetlive -tcp                             # workers reach the shards over TCP
//	hetlive -conform=false -mb 200           # live run only, bigger budget
//	hetlive -deploy -model vgg19 -policy ED -d 1 -nm 2 -progress
//	hetlive -faults crash:w1:mb40 -checkpoint-every 2        # crash-recover conformance
//	hetlive -conform=false -checkpoint-every 2 -checkpoint-path run.ckpt
//	hetlive -conform=false -resume run.ckpt -mb 192          # resume & extend a run
//	hetlive -deploy -cluster mini -tcp -task mlp -mb 3000 -cpuprofile live.prof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"hetpipe"
	"hetpipe/internal/cluster"
	"hetpipe/internal/fault"
	"hetpipe/internal/prof"
	"hetpipe/internal/train"
	"hetpipe/internal/wsp"
)

func main() {
	taskName := flag.String("task", "logreg", "training task: logreg (convex) or mlp (non-convex)")
	workers := flag.Int("workers", 4, "virtual workers N, one goroutine each (conformance/raw modes)")
	shards := flag.Int("shards", 2, "parameter-server shard hosts M (conformance/raw modes)")
	d := flag.Int("d", 1, "WSP clock distance bound D")
	nm := flag.Int("nm", 4, "concurrent minibatches per worker (wave size, slocal = Nm-1)")
	tcp := flag.Bool("tcp", false, "reach the shards over real TCP sockets instead of in-process")
	lr := flag.Float64("lr", 0.2, "SGD step size")
	mb := flag.Int("mb", 96, "minibatch budget per worker")
	chunks := flag.Int("chunks", 0, "parameter chunks spread over the shards (0 = 4 per shard)")
	seed := flag.Int64("seed", 13, "task seed")
	conform := flag.Bool("conform", true, "also run the simulator and report conformance")
	deploy := flag.Bool("deploy", false, "resolve a model deployment via hetpipe.New and run Deployment.Train")
	modelName := flag.String("model", "vgg19", "DNN model for -deploy mode (see hetpipe.Models)")
	clusterName := flag.String("cluster", "paper", "cluster-catalog shape for -deploy mode")
	policy := flag.String("policy", "ED", "allocation policy for -deploy mode")
	schedule := flag.String("schedule", "", "pipeline schedule for -deploy mode (see hetpipe.Schedules; empty = hetpipe-fifo)")
	interleave := flag.Int("interleave", 0, "interleave degree V for -deploy mode (requires -schedule interleaved when > 1)")
	progress := flag.Bool("progress", false, "stream push/pull/clock events while training (-deploy mode)")
	faultSpec := flag.String("faults", "", "fault-injection plan, e.g. slow:w0:x2,crash:w1:mb40 (conformance keeps the sim fault-free)")
	ckptEvery := flag.Int("checkpoint-every", 0, "worker/shard checkpoint cadence in waves (0 = crashes replay from scratch)")
	ckptPath := flag.String("checkpoint-path", "", "persist atomic shard checkpoints to this file (raw/deploy modes)")
	resume := flag.String("resume", "", "resume the shard servers from this checkpoint file (raw/deploy modes)")
	step := flag.Duration("step", 0, "emulated per-minibatch compute time; slow/link faults scale it (0 = as fast as possible)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	flag.Parse()

	if *nm < 1 {
		fatalf("-nm must be >= 1")
	}
	stopProfile, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fatalf("%v", err)
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	plan, err := fault.Parse(*faultSpec)
	if err != nil {
		fatalf("%v", err)
	}

	if *deploy {
		runDeploy(ctx, deployOpts{
			model: *modelName, cluster: *clusterName, policy: *policy,
			schedule: *schedule, interleave: *interleave, task: *taskName,
			d: *d, nm: *nm, mb: *mb, chunks: *chunks, seed: *seed, lr: *lr,
			tcp: *tcp, progress: *progress,
			faults: *faultSpec, ckptEvery: *ckptEvery, ckptPath: *ckptPath, resume: *resume,
			step: *step,
		})
		return
	}

	var task train.Task
	switch *taskName {
	case "logreg":
		task, err = train.DefaultTask(*seed)
	case "mlp":
		task, err = train.DefaultMLPTask(*seed)
	default:
		err = fmt.Errorf("unknown task %q (want logreg or mlp)", *taskName)
	}
	if err != nil {
		fatalf("%v", err)
	}

	if *conform {
		report, err := cluster.RunConformance(ctx, cluster.ConformanceConfig{
			Task: task, Workers: *workers, SLocal: *nm - 1, D: *d,
			LR: *lr, MaxMinibatches: *mb,
			Servers: *shards, Chunks: *chunks, TCP: *tcp,
			Faults: plan, CheckpointEvery: *ckptEvery,
		})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(report)
		if err := report.Err(); err != nil {
			os.Exit(1)
		}
		return
	}

	stats, err := cluster.Run(ctx, cluster.Config{
		Task: task, Workers: *workers, Servers: *shards,
		SLocal: *nm - 1, D: *d, LR: *lr,
		MaxMinibatches: *mb, Chunks: *chunks, TCP: *tcp,
		Faults: plan, CheckpointEvery: *ckptEvery,
		CheckpointPath: *ckptPath, ResumeFrom: *resume,
		StepTime: *step,
	})
	if err != nil {
		fatalf("%v", err)
	}
	mode := "in-process"
	if *tcp {
		mode = "TCP"
	}
	fmt.Printf("live WSP run (%s): %d workers x %d minibatches over %d shards, Nm=%d D=%d\n",
		mode, *workers, *mb, *shards, *nm, *d)
	fmt.Printf("minibatches=%d pushes=%d pulls=%d globalClock=%d maxClockDistance=%d (bound %d)\n",
		stats.Minibatches, stats.Pushes, stats.Pulls, stats.GlobalClock, stats.MaxClockDistance, *d+1)
	fmt.Printf("max staleness observed: %d (sglobal %d)\n",
		stats.MaxStaleness, wsp.Params{SLocal: *nm - 1, D: *d, Workers: *workers}.SGlobal())
	frames := "" // round trips exist only over TCP
	if stats.ShardFrames > 0 {
		frames = fmt.Sprintf(" in %d frames (%.1f per wave per worker)",
			stats.ShardFrames, float64(stats.ShardFrames)/float64(max(stats.Pushes, 1)))
	}
	fmt.Printf("data plane: shard ops %d pushes / %d pulls%s, %d malformed requests rejected\n",
		stats.ShardPushes, stats.ShardPulls, frames, stats.ShardMalformed)
	printFaultSummary(stats)
	fmt.Printf("final accuracy=%.3f loss=%.4f wall=%.3fs\n",
		task.Accuracy(stats.FinalWeights), task.Loss(stats.FinalWeights), stats.Elapsed.Seconds())
}

// printFaultSummary reports recovery and checkpoint activity, if any.
func printFaultSummary(stats *cluster.Stats) {
	if stats.ResumedClock > 0 {
		fmt.Printf("resumed from shard checkpoint at global clock %d\n", stats.ResumedClock)
	}
	if stats.Crashes > 0 || stats.Checkpoints > 0 {
		fmt.Printf("faults: %d crashes, %d recoveries, %d minibatches replayed, %d checkpoints taken\n",
			stats.Crashes, stats.Recoveries, stats.ReplayedMinibatches, stats.Checkpoints)
	}
}

// deployOpts carries the -deploy mode's flag values.
type deployOpts struct {
	model, cluster, policy, schedule, task string
	interleave                             int
	d, nm, mb, chunks                      int
	seed                                   int64
	lr                                     float64
	tcp, progress                          bool
	faults                                 string
	ckptEvery                              int
	ckptPath, resume                       string
	step                                   time.Duration
}

// runDeploy resolves a deployment through the public API and trains it live:
// worker and shard counts come from the deployment (one worker per virtual
// worker, one shard host per cluster node).
func runDeploy(ctx context.Context, o deployOpts) {
	opts := []hetpipe.Option{
		hetpipe.WithModel(o.model),
		hetpipe.WithCluster(o.cluster),
		hetpipe.WithPolicy(o.policy),
		hetpipe.WithSchedule(o.schedule),
		hetpipe.WithInterleave(o.interleave),
		hetpipe.WithD(o.d),
		hetpipe.WithNm(o.nm),
		hetpipe.WithMinibatchesPerVW(o.mb),
		hetpipe.WithTrainTask(o.task),
		hetpipe.WithSeed(o.seed),
		hetpipe.WithLearningRate(o.lr),
		hetpipe.WithTCP(o.tcp),
		hetpipe.WithChunks(o.chunks),
		hetpipe.WithFaults(o.faults),
		hetpipe.WithCheckpoint(o.ckptEvery),
		hetpipe.WithCheckpointPath(o.ckptPath),
		hetpipe.WithResumeFrom(o.resume),
		hetpipe.WithStepTime(o.step),
	}
	if o.progress {
		opts = append(opts, hetpipe.WithObserver(func(e hetpipe.Event) {
			switch e.Kind {
			case hetpipe.EventPush:
				fmt.Printf("  t=%7.3fs  VW%d pushed wave %d\n", e.Time, e.VW+1, e.Wave)
			case hetpipe.EventPull:
				fmt.Printf("  t=%7.3fs  VW%d pulled at global clock %d\n", e.Time, e.VW+1, e.Clock)
			case hetpipe.EventClockAdvance:
				fmt.Printf("  t=%7.3fs  global clock -> %d\n", e.Time, e.Clock)
			case hetpipe.EventFaultInject:
				fmt.Printf("  t=%7.3fs  FAULT injected: %s\n", e.Time, e.Fault)
			case hetpipe.EventRecover:
				fmt.Printf("  t=%7.3fs  VW%d recovered from checkpoint (clock %d, replaying from minibatch %d)\n",
					e.Time, e.VW+1, e.Clock, e.Minibatch)
			}
		}))
	}
	dep, err := hetpipe.New(opts...)
	if err != nil {
		fatalf("%v", err)
	}
	mode := "in-process"
	if o.tcp {
		mode = "TCP"
	}
	fmt.Printf("live deployment (%s): %s on %s/%s, %d VWs [%s], schedule=%s, Nm=%d D=%d, %d minibatches per VW\n",
		mode, dep.Model(), dep.ClusterName(), o.policy,
		len(dep.VirtualWorkers()), dep.VirtualWorkers()[0], dep.Schedule(), dep.Nm(), dep.D(), o.mb)
	if f := dep.Faults(); f != "" {
		fmt.Printf("fault plan: %s (checkpoint every %d waves)\n", f, dep.CheckpointEvery())
	}
	sum, err := dep.Train(ctx)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("minibatches=%d pushes=%d pulls=%d globalClock=%d maxClockDistance=%d (bound %d)\n",
		sum.Minibatches, sum.Pushes, sum.Pulls, sum.GlobalClock, sum.MaxClockDistance, dep.D()+1)
	if sum.ResumedClock > 0 {
		fmt.Printf("resumed from shard checkpoint at global clock %d\n", sum.ResumedClock)
	}
	if sum.Crashes > 0 || sum.Checkpoints > 0 {
		fmt.Printf("faults: %d crashes, %d recoveries, %d minibatches replayed, %d checkpoints taken\n",
			sum.Crashes, sum.Recoveries, sum.ReplayedMinibatches, sum.Checkpoints)
	}
	fmt.Printf("final accuracy=%.3f loss=%.4f wall=%.3fs\n",
		sum.FinalAccuracy, sum.FinalLoss, sum.WallSeconds)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hetlive: "+format+"\n", args...)
	os.Exit(1)
}
