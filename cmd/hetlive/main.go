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
//	hetlive -deploy -cluster mini -tcp -task mlp -mb 3000 -memprofile mem.prof
//
// -model, -cluster, -policy, -schedule, -interleave and -progress apply to
// -deploy mode; -workers and -shards to the other two. -cpuprofile and
// -memprofile write stdlib runtime/pprof profiles of the run, also of one
// that fails or is interrupted; -memprofile samples every allocation, so go
// tool pprof -sample_index=alloc_space attributes the run's allocated bytes
// exactly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"hetpipe"
	"hetpipe/internal/cli"
	"hetpipe/internal/cluster"
	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/train"
	"hetpipe/internal/wsp"
)

func main() {
	taskName := flag.String("task", "logreg", "training task: logreg (convex) or mlp (non-convex)")
	workers := flag.Int("workers", 4, "virtual workers N, one goroutine each (conformance/raw modes)")
	shards := flag.Int("shards", 2, "parameter-server shard hosts M (conformance/raw modes)")
	tcp := flag.Bool("tcp", false, "reach the shards over real TCP sockets instead of in-process")
	lr := flag.Float64("lr", 0.2, "SGD step size")
	mb := flag.Int("mb", 96, "minibatch budget per worker")
	chunks := flag.Int("chunks", 0, "parameter chunks spread over the shards (0 = 4 per shard)")
	seed := flag.Int64("seed", 13, "task seed")
	conform := flag.Bool("conform", true, "also run the simulator and report conformance")
	deploy := flag.Bool("deploy", false, "resolve a model deployment via hetpipe.New and run Deployment.Train")
	ckptPath := flag.String("checkpoint-path", "", "persist atomic shard checkpoints to this file")
	resume := flag.String("resume", "", "resume the shard servers from this checkpoint file")
	step := flag.Duration("step", 0, "emulated per-minibatch compute time; slow/link faults scale it (0 = as fast as possible)")
	f := cli.Bind(flag.CommandLine, core.Spec{Model: "vgg19", Cluster: "paper", Policy: "ED", Nm: 4, D: 1},
		"model", "cluster", "policy", "schedule", "interleave", "nm", "d", "faults", "checkpoint-every", "progress",
		"cpuprofile", "memprofile")
	flag.Parse()

	if f.Nm < 1 {
		fatalf("-nm must be >= 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	defer cli.Start(f.CPUProfile, f.MemProfile, fatalf)()

	plan, err := fault.Parse(f.Faults)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := cluster.Config{
		Workers: *workers, Servers: *shards,
		SLocal: f.Nm - 1, D: f.D, LR: *lr,
		MaxMinibatches: *mb, Chunks: *chunks, TCP: *tcp,
		Faults: plan, CheckpointEvery: f.CheckpointEvery,
		CheckpointPath: *ckptPath, ResumeFrom: *resume,
		StepTime: *step,
	}
	if *deploy {
		runDeploy(ctx, f, cfg, *taskName, *seed)
		return
	}

	build, ok := train.TaskNamed(*taskName)
	if !ok {
		fatalf("unknown task %q (want logreg or mlp)", *taskName)
	}
	if cfg.Task, err = build(*seed); err != nil {
		fatalf("%v", err)
	}
	printRetention(&cfg)
	if *conform {
		report, err := cluster.RunConformance(ctx, cfg)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(report)
		if err := report.Err(); err != nil {
			cli.Exit(1)
		}
		return
	}

	stats, err := cluster.Run(ctx, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	mode := "in-process"
	if *tcp {
		mode = "TCP"
	}
	fmt.Printf("live WSP run (%s): %d workers x %d minibatches over %d shards, Nm=%d D=%d\n",
		mode, *workers, *mb, *shards, f.Nm, f.D)
	fmt.Printf("minibatches=%d pushes=%d pulls=%d globalClock=%d maxClockDistance=%d (bound %d)\n",
		stats.Minibatches, stats.Pushes, stats.Pulls, stats.GlobalClock, stats.MaxClockDistance, f.D+1)
	fmt.Printf("max staleness observed: %d (sglobal %d)\n",
		stats.MaxStaleness, wsp.Params{SLocal: f.Nm - 1, D: f.D, Workers: *workers}.SGlobal())
	frames := "" // round trips exist only over TCP
	if stats.ShardFrames > 0 {
		frames = fmt.Sprintf(" in %d frames (%.1f per wave per worker)",
			stats.ShardFrames, float64(stats.ShardFrames)/float64(max(stats.Pushes, 1)))
	}
	fmt.Printf("data plane: shard ops %d pushes / %d pulls%s, %d malformed requests rejected, %d snapshots retained\n",
		stats.ShardPushes, stats.ShardPulls, frames, stats.ShardMalformed, stats.RetainedSnapshots)
	printFaultSummary(stats.ResumedClock, stats.Crashes, stats.Recoveries, stats.ReplayedMinibatches, stats.Checkpoints)
	fmt.Printf("final accuracy=%.3f loss=%.4f wall=%.3fs\n",
		cfg.Task.Accuracy(stats.FinalWeights), cfg.Task.Loss(stats.FinalWeights), stats.Elapsed.Seconds())
}

// printFaultSummary reports recovery and checkpoint activity, if any.
func printFaultSummary(resumedClock, crashes, recoveries, replayed, checkpoints int) {
	if resumedClock > 0 {
		fmt.Printf("resumed from shard checkpoint at global clock %d\n", resumedClock)
	}
	if crashes > 0 || checkpoints > 0 {
		fmt.Printf("faults: %d crashes, %d recoveries, %d minibatches replayed, %d checkpoints taken\n",
			crashes, recoveries, replayed, checkpoints)
	}
}

// printRetention says so when the run's shard servers must keep every clock's
// snapshot, and why.
func printRetention(cfg *cluster.Config) {
	if why := cfg.KeepsEveryClock(); why != "" {
		fmt.Printf("retention: the shard servers keep every clock's snapshot: %s\n", why)
	}
}

// runDeploy resolves a deployment through the public API and trains it live:
// worker and shard counts come from the deployment (one worker per virtual
// worker, one shard host per cluster node), the rest from the flags and from
// cfg, the run the other modes would make.
func runDeploy(ctx context.Context, f *cli.Flags, cfg cluster.Config, task string, seed int64) {
	opts := append(f.Options(),
		hetpipe.WithMinibatchesPerVW(cfg.MaxMinibatches),
		hetpipe.WithTrainTask(task),
		hetpipe.WithSeed(seed),
		hetpipe.WithLearningRate(cfg.LR),
		hetpipe.WithTCP(cfg.TCP),
		hetpipe.WithChunks(cfg.Chunks),
		hetpipe.WithCheckpointPath(cfg.CheckpointPath),
		hetpipe.WithResumeFrom(cfg.ResumeFrom),
		hetpipe.WithStepTime(cfg.StepTime),
	)
	if f.Progress {
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
	if cfg.TCP {
		mode = "TCP"
	}
	fmt.Printf("live deployment (%s): %s on %s/%s, %d VWs [%s], schedule=%s, Nm=%d D=%d, %d minibatches per VW\n",
		mode, dep.Model(), dep.ClusterName(), f.Policy,
		len(dep.VirtualWorkers()), dep.VirtualWorkers()[0], dep.Schedule(), dep.Nm(), dep.D(), cfg.MaxMinibatches)
	if plan := dep.Faults(); plan != "" {
		fmt.Printf("fault plan: %s (checkpoint every %d waves)\n", plan, dep.CheckpointEvery())
	}
	cfg.Workers = len(dep.VirtualWorkers())
	printRetention(&cfg)
	sum, err := dep.Train(ctx)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("minibatches=%d pushes=%d pulls=%d globalClock=%d maxClockDistance=%d (bound %d)\n",
		sum.Minibatches, sum.Pushes, sum.Pulls, sum.GlobalClock, sum.MaxClockDistance, dep.D()+1)
	printFaultSummary(sum.ResumedClock, sum.Crashes, sum.Recoveries, sum.ReplayedMinibatches, sum.Checkpoints)
	fmt.Printf("final accuracy=%.3f loss=%.4f wall=%.3fs\n",
		sum.FinalAccuracy, sum.FinalLoss, sum.WallSeconds)
}

func fatalf(format string, args ...any) { cli.Fatalf("hetlive: "+format, args...) }
