// Command hetperf is the repository's end-to-end benchmark: four workloads a
// user of hetpipe actually waits for, timed in reference seconds against a
// frozen kernel so that the numbers survive a host whose speed flips under
// them, with a traced pass that attributes each workload to its layers.
//
//	hetperf -workload W -seed N -seconds S -trace 0|1   one run; last line is the result JSON
//	hetperf -all                                        every workload, both passes, in child processes
//	hetperf -aa [-busy-neighbour]                       A/A self-check of the benchmark's own noise
//	hetperf -spec                                       print BENCHMARK.json
//
// -busy and -setup-only are the modes of the children -aa and a run start.
//
// See ../README.md for the protocol and the reasons behind it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// traceDir is where the traced pass writes <workload>.trace.json.
const traceDir = "bench/out"

// options are one run's arguments. tiny and outDir are not flags: only the
// smoke test sets them.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	tiny    bool   // smoke-test sizes; the numbers mean nothing
	outDir  string // traceDir, or the test's temporary directory
}

// run executes one workload once. Untraced, it reports the end-to-end
// metrics. Traced, it reports every per-layer metric: the selected
// workload's harness diagnostics and its ledger first, then the other three
// ledgers, because the driver wants every per-layer metric from every traced
// run (a layer's number does not depend on which workload asked for it).
func run(w *workload, o options) result {
	h := newHarness(o.seed, o.tiny)
	vals := map[string]float64{}
	passes := h.pick(max(1, int(math.Round(float64(w.passes)*o.seconds/runSeconds))), 1)
	kinds := w.prepare(h)
	switch {
	case kinds == nil:
	case !o.traced:
		samples := h.measure(kinds, passes)
		peakRSS := h.passPeakRSSMB(kinds)
		// This process's set-up was cold; so is each of the others, in a
		// process of its own, after the rounds so that they disturb nothing.
		setups := []float64{h.setupSeconds()}
		for len(setups) < h.pick(coldSetups, 1) {
			s, err := childSetup(w, o)
			if err != nil {
				h.op(1)
				h.fail("%s: cold set-up: %v", w.Name, err)
				break
			}
			setups = append(setups, s)
		}
		vals = h.endToEnd(kinds, samples, median(setups), peakRSS)
	default:
		samples := h.measure(kinds, (2*passes+4)/5)
		vals = h.harnessMetrics(kinds, samples)
		h.tr = newTracer()
		traced := h.measure(kinds, (passes+4)/5)
		vals["harness.trace_overhead_share"] = passRefSeconds(traced, len(kinds))/passRefSeconds(samples, len(kinds)) - 1
		w.ledger(h, vals)
		for i := range workloads {
			if other := &workloads[i]; other != w {
				other.ledger(h, vals)
			}
		}
		path := filepath.Join(o.outDir, w.Name+".trace.json")
		if err := h.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "hetperf: writing trace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "hetperf: %d spans written to %s\n", len(h.tr.spans), path)
		}
	}
	res := result{Metrics: map[string]metric{}}
	for _, d := range defs(o.traced) {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			h.op(1)
			h.fail("%s/%s was not measured", w.Name, d.Name)
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	res.Attempted, res.Failed, res.Correct = max(h.ops, 1), h.failed, h.failed == 0
	return res
}

// defs is the metric table a pass reports.
func defs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with its unit.
func (r result) print(w *workload, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%s/%s %.6g %s\n", w.Name, d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("%s/ops_total %d count\n%s/ops_failed %d count\n", w.Name, r.Attempted, w.Name, r.Failed)
}

// printLine writes the result JSON, the last line of a single run.
func (r result) printLine() {
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

func main() {
	// One P, before anything else: on the two-vCPU hosts this runs on, a
	// second busy thread slows the first by half again and no reference
	// kernel can normalise that away. Parallel scaling is not measured.
	runtime.GOMAXPROCS(1)

	var o options
	name := flag.String("workload", "", "workload to run: plan-cold, sweep-warm, serve-curve or live-tcp")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "nominal reference seconds of the timed phase: scales each workload's fixed pass count")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	all := flag.Bool("all", false, "run every workload, untraced then traced, each in its own process")
	aa := flag.Bool("aa", false, "A/A self-check: two sets of runs of this binary must agree within the bounds")
	neighbour := flag.Bool("busy-neighbour", false, "with -aa: keep a busy-loop process running beside the runs")
	busy := flag.Bool("busy", false, "spin forever (the -busy-neighbour child)")
	setupOnly := flag.Bool("setup-only", false, "set the workload up once and print its set-up reference seconds (a run's cold set-up child)")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.traced = *trace != 0
	o.outDir = traceDir

	switch {
	case *printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec()); err != nil {
			fmt.Fprintf(os.Stderr, "hetperf: %v\n", err)
			os.Exit(1)
		}
	case *busy:
		for x := 1.0; ; x = x*1.0000001 + 1e-9 {
			if x > 1e300 {
				x = 1
			}
		}
	case *aa:
		os.Exit(selfCheck(o, *neighbour))
	case *all:
		os.Exit(runAll(o))
	default:
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "hetperf: unknown workload %q\n", *name)
			os.Exit(2)
		}
		if *setupOnly {
			h := newHarness(o.seed, false)
			if w.prepare(h) == nil || h.failed > 0 {
				os.Exit(1)
			}
			fmt.Println(h.setupSeconds())
			return
		}
		r := run(w, o)
		r.print(w, defs(o.traced))
		r.printLine() // a run that printed its result exits 0; "correct" carries the verdict
	}
}
