// Command hetserve runs the inference-serving plane over a resolved HetPipe
// deployment: every virtual worker becomes a serving replica running its
// partition plan forward-only under the chosen pipeline schedule, a seedable
// traffic generator offers requests, the admission layer coalesces them into
// microbatches (continuous batching), and the run reports served
// requests/sec with nearest-rank latency percentiles, split by traffic
// class and by replica.
//
// Usage:
//
//	hetserve -traffic poisson:r120:n2000                  # one serving run
//	hetserve -traffic poisson:r120:n2000:crit0.2 -policy NP
//	hetserve -traffic closed:u64:t0.05:n2000              # closed-loop users
//	hetserve -traffic poisson:r60:n1000 -faults slow:w0:x2,crash:w1:mb5:down0.5
//	hetserve -traffic poisson:r60:n1000 -rates 30,60,120,240,480
//	                                   # latency-vs-offered-throughput curve
//	hetserve -traffic poisson:r60:n500 -trace             # per-request lifecycle
//	hetserve -traffic poisson:r160:n2000000 -cpuprofile serve.prof
//
// The traffic grammar (internal/serve; hetsweep -list prints it) is seedable
// with :seed<k> and classed with :crit<f>: "poisson:r<rate>:n<count>",
// "diurnal:r<rate>:a<amp>:p<period>:n<count>",
// "bursty:r<rate>:x<factor>:on<sec>:off<sec>:n<count>",
// "closed:u<users>:t<think>:n<count>".
// Runs are deterministic: the same flags reproduce byte-identical output.
// In -rates mode the spec's rate is re-bound per point (open-loop kinds
// only) on one warm engine, tracing the saturation knee directly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"hetpipe/internal/cli"
	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/serve"
)

func main() {
	f := bindFlags(flag.CommandLine)
	traffic := flag.String("traffic", "", "traffic spec (required), e.g. poisson:r120:n2000:crit0.2")
	rates := flag.String("rates", "", "comma-separated offered rates: sweep the spec across them and print a latency-vs-throughput curve")
	trace := flag.Bool("trace", false, "print the per-request lifecycle trace")
	jsonPath := flag.String("json", "", "write the full result (curve mode: result list) as JSON (empty = skip)")
	flag.Parse()

	if *traffic == "" {
		fatalf("-traffic is required (e.g. -traffic poisson:r120:n2000)")
	}
	tr, err := serve.ParseTraffic(*traffic)
	if err != nil {
		fatalf("%v", err)
	}
	plan, err := fault.Parse(f.Faults)
	if err != nil {
		fatalf("%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	defer cli.Start(f.CPUProfile, f.MemProfile, fatalf)()
	dep, err := f.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	opt := serve.Options{Faults: plan}

	if *rates != "" {
		points, err := splitFloats(*rates)
		if err != nil {
			fatalf("-rates: %v", err)
		}
		results, err := serve.Curve(ctx, dep, tr, points, opt)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%10s %8s %10s %10s %10s %10s %10s\n",
			"RATE", "SERVED", "REQ/S", "P50", "P95", "P99", "FILL")
		for i, r := range results {
			fmt.Printf("%10s %8d %10.1f %10.4g %10.4g %10.4g %10.2f\n",
				ftoa(points[i]), r.Served, r.ThroughputRPS,
				r.Latency.P50, r.Latency.P95, r.Latency.P99, r.MeanBatchFill)
		}
		writeJSON(*jsonPath, results)
		return
	}

	res, err := serve.Run(ctx, dep, tr, opt)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("traffic   %s\n", res.Traffic)
	fmt.Printf("served    %d/%d in %.4gs virtual (%.1f req/s)\n",
		res.Served, res.Offered, res.Duration, res.ThroughputRPS)
	fmt.Printf("batches   %d (mean fill %.2f of cap %d)\n", res.Batches, res.MeanBatchFill, dep.Sys.Batch)
	fmt.Printf("latency   %s\n", res.Latency)
	if res.Critical.Count > 0 {
		fmt.Printf("critical  %s\n", res.Critical)
		fmt.Printf("bulk      %s\n", res.Bulk)
	}
	if res.FaultInjections > 0 {
		fmt.Printf("faults    %d injected, %d crashes, %d recoveries\n",
			res.FaultInjections, res.Crashes, res.Recoveries)
	}
	fmt.Printf("%-8s %-10s %9s %8s %6s %6s\n", "REPLICA", "GPUS", "REQUESTS", "BATCHES", "FILL", "UTIL")
	for _, rs := range res.Replicas {
		fmt.Printf("w%-7d %-10s %9d %8d %6.2f %6.2f\n",
			rs.Replica, rs.Type, rs.Requests, rs.Batches, rs.MeanFill, rs.Utilization)
	}
	if *trace {
		fmt.Print(res.TraceString())
	}
	writeJSON(*jsonPath, res)
}

// bindFlags declares hetserve's deployment flags. D and the parameter
// placement shape only WSP's synchronization, which serving never runs, so
// neither has a flag and both stay at their defaults.
func bindFlags(fs *flag.FlagSet) *cli.Flags {
	return cli.Bind(fs, core.Spec{Model: "vgg19", Cluster: "paper", Policy: "NP"},
		"model", "cluster", "policy", "schedule", "interleave", "nm", "batch", "faults", "cpuprofile", "memprofile")
}

func splitFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	return out, nil
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeJSON(path string, v interface{}) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("writing %s: %v", path, err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		fatalf("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatalf(format string, args ...any) { cli.Fatalf("hetserve: "+format, args...) }
