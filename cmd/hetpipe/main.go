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
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"hetpipe"
)

func main() {
	modelName := flag.String("model", "vgg19", "DNN model (see hetpipe.Models: vgg19, resnet152, ...)")
	clusterName := flag.String("cluster", "paper", "cluster-catalog shape (see hetsweep -list)")
	policy := flag.String("policy", "ED", "allocation policy: NP, ED, or HD")
	specs := flag.String("specs", "", "explicit VW specs, comma separated (e.g. VRQ,VRQ,VRQ,VRQ); overrides -policy")
	nm := flag.Int("nm", 0, "concurrent minibatches per VW (0 = auto)")
	d := flag.Int("d", 0, "WSP clock distance bound D")
	batch := flag.Int("batch", 32, "minibatch size")
	local := flag.Bool("local", false, "use local parameter placement (ED only)")
	horovod := flag.Bool("horovod", false, "run the Horovod baseline instead")
	gantt := flag.Bool("gantt", false, "print the pipeline schedule of VW 1")
	schedule := flag.String("schedule", "", "pipeline schedule: "+strings.Join(hetpipe.Schedules(), ", ")+" (empty = hetpipe-fifo)")
	interleave := flag.Int("interleave", 0, "interleave degree V: chunks per GPU (requires -schedule interleaved when > 1)")
	warmup := flag.Int("warmup", 1, "warmup minibatches excluded from -gantt/-trace-out rendering")
	traceOut := flag.String("trace-out", "", "write VW 1's pipeline schedule as chrome://tracing JSON to this path")
	progress := flag.Bool("progress", false, "stream wave-push and clock-advance events while simulating")
	faults := flag.String("faults", "", "fault-injection plan, e.g. slow:w0:x2,crash:w1:mb40 (see hetpipe.WithFaults)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in waves; prices crash replay (0 = replay from scratch)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *horovod {
		b, err := hetpipe.Horovod(*modelName, *clusterName, *batch)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("Horovod %s: %.0f samples/s over %d workers\n", *modelName, b.Throughput, b.Workers)
		if len(b.Excluded) > 0 {
			fmt.Printf("excluded (model too large): %s\n", strings.Join(b.Excluded, ", "))
		}
		return
	}

	opts := []hetpipe.Option{
		hetpipe.WithModel(*modelName),
		hetpipe.WithCluster(*clusterName),
		hetpipe.WithBatch(*batch),
		hetpipe.WithNm(*nm),
		hetpipe.WithD(*d),
		hetpipe.WithLocalPlacement(*local),
		hetpipe.WithSchedule(*schedule),
		hetpipe.WithInterleave(*interleave),
		hetpipe.WithWarmup(*warmup),
		hetpipe.WithFaults(*faults),
		hetpipe.WithCheckpoint(*ckptEvery),
	}
	if *specs != "" {
		opts = append(opts, hetpipe.WithSpecs(strings.Split(*specs, ",")...))
	} else {
		opts = append(opts, hetpipe.WithPolicy(*policy))
	}
	if *progress {
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
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := dep.Simulate(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("HetPipe %s: %.0f samples/s aggregate (schedule=%s, Nm=%d, slocal=%d, D=%d, sglobal=%d)\n",
		*modelName, res.Throughput, dep.Schedule(), res.Nm, res.Nm-1, *d, res.SGlobal)
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
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("\npipeline schedule (VW 1):")
		fmt.Print(g)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		werr := dep.WriteChromeTrace(f, 0, 0)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		fmt.Printf("wrote chrome://tracing schedule of VW 1 to %s\n", *traceOut)
	}
}
