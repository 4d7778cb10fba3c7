// Command hetsweep explores HetPipe configuration grids in parallel: it
// expands a scenario grid (models x clusters x allocation policies x sync
// modes x D x Nm), simulates every scenario on a bounded worker pool, writes
// structured JSON and CSV results, and prints a ranked best-configuration
// summary.
//
// Usage:
//
//	hetsweep                                  # default 24-scenario grid
//	hetsweep -workers 1                       # same grid, serial (identical output)
//	hetsweep -models vgg19 -clusters paper,mini -policies ED -d 0,1,2,4 -nm 1,2,4
//	hetsweep -sync wsp,horovod -placements default,local
//	hetsweep -schedules hetpipe-fifo,1f1b,hetpipe-overlap   # pipeline-schedule axis
//	hetsweep -schedules interleaved -interleaves 1,2,4      # virtual-stage degree axis
//	hetsweep -faults ';slow:w0:x2;rand:0.5:seed7'           # fault axis (';'-separated,
//	                                          leading empty entry = fault-free baseline)
//	hetsweep -traffics 'poisson:r60:n2000;poisson:r120:n2000'  # serving axis: each spec
//	                                          turns its scenarios into inference-serving
//	                                          runs (requests/sec + latency percentiles)
//	hetsweep -list                            # show the available axis values
//	hetsweep -workers 1 -cpuprofile cpu.prof -memprofile mem.prof  # profile the sweep
//
// Results land in -json and -csv (set either to "" to skip). With -stream the
// sweep aggregates on the fly instead of materializing a row per scenario —
// memory stays bounded by the grid's axes, so 10^5+ cell grids are practical;
// -json then receives the aggregate summary (counts, throughput percentiles,
// per-pair ranking) and -csv is skipped. The output is deterministic either
// way: for a given grid, every worker count produces byte-identical files.
// Scenarios differing only in D, Nm, placement, or faults share resolved
// state (model profiling and allocation run once per family; partitioning,
// auto-Nm and the plan summaries once per Nm/placement variant; each fault
// spec is parsed once), each worker reuses one warm
// co-simulation across its scenarios — engine, pipelines, devices and
// coordinator re-initialised per cell, never rebuilt — and Ctrl-C cancels the
// sweep cleanly. -cpuprofile and -memprofile write stdlib runtime/pprof
// profiles of the run; -memprofile samples every allocation, so
// `go tool pprof -sample_index=alloc_objects` counts them exactly.
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
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/sched"
	"hetpipe/internal/serve"
	"hetpipe/internal/sweep"
)

func main() {
	def := sweep.DefaultGrid()
	models := flag.String("models", strings.Join(def.Models, ","), "comma-separated model-zoo keys")
	clusters := flag.String("clusters", strings.Join(def.Clusters, ","), "comma-separated cluster-catalog keys")
	policies := flag.String("policies", strings.Join(def.Policies, ","), "comma-separated allocation policies (NP, ED, HD)")
	syncModes := flag.String("sync", "wsp", "comma-separated sync modes (wsp, horovod)")
	placements := flag.String("placements", "default", "comma-separated parameter placements (default, local)")
	schedules := flag.String("schedules", sched.Default().Name(), "comma-separated pipeline schedules ("+strings.Join(sched.Names(), ", ")+")")
	interleaves := flag.String("interleaves", "1", "comma-separated interleave degrees V (schedules without interleave support collapse to V=1)")
	faults := flag.String("faults", "", "semicolon-separated fault-plan specs (fault grammar: slow:w0:x2,crash:w1:mb40,...); an empty entry is the fault-free baseline")
	traffics := flag.String("traffics", "", "semicolon-separated serving traffic specs (serve grammar: poisson:r120:n2000, diurnal:r120:a0.5:p60:n2000, bursty:r60:x4:on2:off8:n2000, closed:u64:t0.05:n2000); an empty entry is the training baseline")
	dValues := flag.String("d", intsJoin(def.DValues), "comma-separated WSP clock-distance bounds")
	nmValues := flag.String("nm", "0", "comma-separated concurrent-minibatch counts (0 = auto)")
	mbs := flag.Int("mbs", 0, "minibatches per virtual worker per scenario (0 = D-aware default, at least 24 waves)")
	workers := flag.Int("workers", 0, "max concurrent scenario simulations (0 = GOMAXPROCS)")
	stream := flag.Bool("stream", false, "aggregate results on the fly (bounded memory; -json gets the summary, -csv is skipped)")
	jsonPath := flag.String("json", "hetsweep.json", "JSON results path (empty = skip)")
	csvPath := flag.String("csv", "hetsweep.csv", "CSV results path (empty = skip)")
	list := flag.Bool("list", false, "list the available axis values and exit")
	quiet := flag.Bool("quiet", false, "suppress per-scenario progress lines")
	f := cli.Bind(flag.CommandLine, core.Spec{}, "batch", "cpuprofile", "memprofile")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	defer cli.Start(f.CPUProfile, f.MemProfile, fatalf)()

	if *list {
		fmt.Println("models:")
		for _, m := range model.Names() {
			fmt.Printf("  %s\n", m)
		}
		fmt.Println("clusters:")
		for _, c := range hw.ClusterCatalog() {
			fmt.Printf("  %-10s %s\n", c.Name, c.Description)
		}
		fmt.Println("policies: NP, ED, HD")
		fmt.Println("sync modes: wsp, horovod")
		fmt.Println("placements: default, local")
		fmt.Println("schedules:")
		for _, n := range sched.Names() {
			s, _ := sched.ByName(n)
			fmt.Printf("  %-16s %s\n", n, s.Description())
		}
		fmt.Println("fault clauses (combine with commas inside one spec):")
		for _, u := range fault.Usage() {
			fmt.Println("  " + u)
		}
		fmt.Println("traffic specs (serving axis):")
		for _, u := range serve.TrafficUsage() {
			fmt.Println("  " + u)
		}
		return
	}

	grid := sweep.Grid{
		Models:           splitList(*models),
		Clusters:         splitList(*clusters),
		Policies:         splitList(*policies),
		SyncModes:        splitList(*syncModes),
		Placements:       splitList(*placements),
		Schedules:        splitList(*schedules),
		Faults:           splitSpecs(*faults),
		Traffics:         splitSpecs(*traffics),
		Batch:            f.Batch,
		MinibatchesPerVW: *mbs,
	}
	var err error
	if grid.DValues, err = splitInts(*dValues); err != nil {
		fatalf("-d: %v", err)
	}
	if grid.NmValues, err = splitInts(*nmValues); err != nil {
		fatalf("-nm: %v", err)
	}
	if grid.Interleaves, err = splitInts(*interleaves); err != nil {
		fatalf("-interleaves: %v", err)
	}

	scenarios, err := grid.Expand()
	if err != nil {
		fatalf("%v", err)
	}
	opt := sweep.Options{Workers: *workers}
	fmt.Printf("sweeping %d scenarios (workers=%d)\n", len(scenarios), opt.ResolvedWorkers(len(scenarios)))

	done := 0
	if !*quiet {
		opt.OnResult = func(r sweep.Result) {
			done++
			unit := "samples/s"
			if r.Scenario.Traffic != "" {
				unit = "req/s"
			}
			status := fmt.Sprintf("%8.0f %s", r.Throughput, unit)
			if r.Error != "" {
				status = "error: " + r.Error
			}
			fmt.Printf("  [%*d/%d] %-45s %s\n", digits(len(scenarios)), done, len(scenarios), r.Scenario.ID(), status)
		}
	}
	if *stream {
		summary, err := sweep.RunStream(ctx, grid, opt)
		if err != nil {
			fatalf("%v", err)
		}
		if *jsonPath != "" {
			if err := writeFile(*jsonPath, func(f *os.File) error {
				enc := json.NewEncoder(f)
				enc.SetIndent("", "  ")
				return enc.Encode(summary)
			}); err != nil {
				fatalf("writing %s: %v", *jsonPath, err)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		if *csvPath != "" {
			fmt.Println("per-scenario CSV not available in -stream mode (rows are not materialized)")
		}
		fmt.Println()
		if err := sweep.WriteStreamSummary(os.Stdout, summary); err != nil {
			fatalf("%v", err)
		}
		if summary.Failures > 0 {
			fmt.Printf("\n%d of %d scenarios failed\n", summary.Failures, summary.Scenarios)
		}
		return
	}

	set, err := sweep.Run(ctx, grid, opt)
	if err != nil {
		fatalf("%v", err)
	}

	if *jsonPath != "" {
		if err := writeFile(*jsonPath, func(f *os.File) error { return sweep.WriteJSON(f, set) }); err != nil {
			fatalf("writing %s: %v", *jsonPath, err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, func(f *os.File) error { return sweep.WriteCSV(f, set) }); err != nil {
			fatalf("writing %s: %v", *csvPath, err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}

	fmt.Println()
	if err := sweep.WriteSummary(os.Stdout, set); err != nil {
		fatalf("%v", err)
	}
	if n := set.Failures(); n > 0 {
		fmt.Printf("\n%d of %d scenarios failed (see the error column)\n", n, len(set.Results))
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// splitSpecs splits a spec axis (faults, traffics) on ';' — the specs
// themselves use ',' and ':' internally. Empty entries are kept as the
// axis's baseline value, so ";slow:w0:x2" sweeps baseline-vs-straggler and
// ";poisson:r60:n500" training-vs-serving; an empty flag means no axis at
// all.
func splitSpecs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ";")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func intsJoin(vs []int) string {
	var parts []string
	for _, v := range vs {
		parts = append(parts, strconv.Itoa(v))
	}
	return strings.Join(parts, ",")
}

func digits(n int) int { return len(strconv.Itoa(n)) }

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) { cli.Fatalf("hetsweep: "+format, args...) }
