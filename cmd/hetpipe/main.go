// Command hetpipe simulates one HetPipe deployment on the paper's 16-GPU
// heterogeneous cluster and reports throughput, partition plans, and
// synchronization overhead. Ctrl-C cancels a run in flight.
//
// Usage:
//
//	hetpipe -model vgg19 -policy ED -local -d 4
//	hetpipe -model resnet152 -specs VRQ,VRQ,VRQ,VRQ -nm 4
//	hetpipe -model resnet152 -cluster paper-x2 -policy HD
//	hetpipe -model vgg19 -policy ED -schedule 1f1b         # pipeline schedule
//	hetpipe -model vgg19 -policy ED -gantt -trace-out t.json  # chrome://tracing
//	hetpipe -model vgg19 -policy ED -progress   # stream wave/clock events
//	hetpipe -model vgg19 -policy ED -d 1 -faults slow:w0:x2          # straggler
//	hetpipe -model vgg19 -policy ED -faults crash:w1:mb24 -checkpoint-every 2
//	hetpipe -model vgg19 -horovod
//	hetpipe -model vgg19 -cpuprofile cpu.prof -memprofile mem.prof  # go tool pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"hetpipe"
	"hetpipe/internal/cli"
	"hetpipe/internal/core"
)

func main() {
	f := cli.Bind(flag.CommandLine, core.Spec{Model: "vgg19", Cluster: "paper", Policy: "ED", Batch: 32},
		"model", "cluster", "policy", "schedule", "interleave", "nm", "d", "batch", "faults", "checkpoint-every", "progress",
		"cpuprofile", "memprofile")
	flag.StringVar(&f.Specs, "specs", "", "explicit VW specs, comma separated (e.g. VRQ,VRQ,VRQ,VRQ); overrides -policy")
	flag.BoolVar(&f.Local, "local", false, "use local parameter placement (ED only)")
	horovod := flag.Bool("horovod", false, "run the Horovod baseline instead")
	gantt := flag.Bool("gantt", false, "print the pipeline schedule of VW 1")
	traceOut := flag.String("trace-out", "", "write VW 1's pipeline schedule as chrome://tracing JSON to this path")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	defer cli.Start(f.CPUProfile, f.MemProfile, cli.Fatalf)()

	if *horovod {
		b, err := hetpipe.Horovod(f.Model, f.Cluster, f.Batch)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		fmt.Printf("Horovod %s: %.0f samples/s over %d workers\n", f.Model, b.Throughput, b.Workers)
		if len(b.Excluded) > 0 {
			fmt.Printf("excluded (model too large): %s\n", strings.Join(b.Excluded, ", "))
		}
		return
	}

	opts := f.Options()
	if f.Progress {
		opts = append(opts, hetpipe.WithObserver(func(e hetpipe.Event) {
			switch e.Kind {
			case hetpipe.EventPush:
				fmt.Printf("  t=%8.2fs  VW%d pushed wave %d (global clock %d)\n", e.Time, e.VW+1, e.Wave, e.Clock)
			case hetpipe.EventClockAdvance:
				fmt.Printf("  t=%8.2fs  global clock -> %d\n", e.Time, e.Clock)
			case hetpipe.EventFaultInject:
				fmt.Printf("  t=%8.2fs  FAULT injected: %s\n", e.Time, e.Fault)
			case hetpipe.EventRecover:
				fmt.Printf("  t=%8.2fs  VW%d recovered (%s)\n", e.Time, e.VW+1, e.Fault)
			}
		}))
	}

	dep, err := hetpipe.New(opts...)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	res, err := dep.Simulate(ctx)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	fmt.Printf("HetPipe %s: %.0f samples/s aggregate (schedule=%s, Nm=%d, slocal=%d, D=%d, sglobal=%d)\n",
		f.Model, res.Throughput, dep.Schedule(), res.Nm, res.Nm-1, f.D, res.SGlobal)
	for i, tp := range res.PerVW {
		fmt.Printf("  VW%d [%s]: %.0f samples/s\n", i+1, res.VirtualWorkers[i], tp)
	}
	fmt.Printf("  waiting %.1fs, idle %.1fs across VWs; %d pushes, %d pulls, max clock distance %d\n",
		res.Waiting, res.Idle, res.Pushes, res.Pulls, res.MaxClockDistance)
	if res.FaultInjections > 0 {
		fmt.Printf("  faults injected: %d (plan %q, checkpoint every %d waves)\n",
			res.FaultInjections, dep.Faults(), dep.CheckpointEvery())
	}
	pl := dep.Planning()
	fmt.Printf("  planning: %d partitions solved, %d carried, %d infeasible, %d cuts priced; %d solo runs, %d Nm pruned; %d of %d minibatches skipped\n",
		pl.Solves, pl.Carried, pl.Infeasible, pl.Priced, pl.SoloWindows, pl.PrunedNm, pl.SkippedMB, pl.SoloMB)
	for i, plan := range res.Plans {
		fmt.Printf("  VW%d partition (bottleneck %.1f ms):\n", i+1, plan.Bottleneck*1e3)
		for s, st := range plan.Stages {
			span := fmt.Sprintf("layers [%3d,%3d)", st.Layers[0], st.Layers[1])
			if len(st.Chunks) > 1 {
				var parts []string
				for _, c := range st.Chunks {
					parts = append(parts, fmt.Sprintf("%d-%d", c[0], c[1]))
				}
				span = "chunks " + strings.Join(parts, "+")
			}
			fmt.Printf("    stage %d on %-10s %s  exec %6.1f ms  mem %5.2f/%5.2f GiB\n",
				s+1, st.GPU, span, st.ExecTime*1e3,
				float64(st.MemoryBytes)/float64(1<<30), float64(st.MemoryCap)/float64(1<<30))
		}
	}
	if *gantt {
		g, err := dep.Gantt(0, 0, 110)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		fmt.Println("\npipeline schedule (VW 1):")
		fmt.Print(g)
	}
	if *traceOut != "" {
		out, err := os.Create(*traceOut)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		werr := dep.WriteChromeTrace(out, 0, 0)
		if cerr := out.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			cli.Fatalf("%v", werr)
		}
		fmt.Printf("wrote chrome://tracing schedule of VW 1 to %s\n", *traceOut)
	}
}
