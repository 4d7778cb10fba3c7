package main

// The benchmark's contract: workloads, metric names, units, directions and
// regression bounds. BENCHMARK.json at the repository root is generated from
// these tables (hetperf -spec) and the smoke test checks the two agree, so a
// name or bound is only ever edited here.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact marks simulated or counted values that must repeat bit for bit
	// for one seed on any machine.
	exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is the nominal length of one run's timed phase: each workload's
// passes below take about this many reference seconds, bursts included.
// -seconds scales the pass count in proportion; nothing stops on a clock.
const runSeconds = 20

// coldSetups is how many times a run sets its workload up, each time in a
// fresh process; setup_s is the median. warmPasses is the warm-up passes in
// each set-up of a single-kind workload.
const (
	coldSetups = 3
	warmPasses = 3
)

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.10},
	{Name: "units_per_s", Unit: "1/s", Better: higher, Bound: 0.10},
	{Name: "allocs_per_unit", Unit: "count", Better: lower, Bound: 0.02},
	{Name: "alloc_bytes_per_unit", Unit: "B", Better: lower, Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.10},
}

var perLayer = []metricDef{
	// plan-cold: the blocking steps of hetpipe.New.
	{Name: "model.build_us", Unit: "us", Better: lower},
	{Name: "hw.alloc_us", Unit: "us", Better: lower},
	{Name: "profile.system_us", Unit: "us", Better: lower},
	{Name: "partition.partition_us", Unit: "us", Better: lower},
	{Name: "partition.maxnm_us", Unit: "us", Better: lower},
	{Name: "partition.calls_per_new", Unit: "count", Better: lower, exact: true},
	{Name: "partition.share", Unit: "share", Better: lower},
	{Name: "pipeline.solo_us", Unit: "us", Better: lower},
	{Name: "pipeline.solo_runs_per_new", Unit: "count", Better: lower, exact: true},
	{Name: "pipeline.solo_share", Unit: "share", Better: lower},
	{Name: "core.deploy_self_share", Unit: "share", Better: lower},
	{Name: "hetpipe.new_self_share", Unit: "share", Better: lower},
	{Name: "core.plan_tp_geomean", Unit: "samples/s", Better: higher, exact: true},
	// sweep-warm: resolution against simulation, then the simulator's parts.
	{Name: "sweep.resolve_share", Unit: "share", Better: lower},
	{Name: "sweep.sim_share", Unit: "share", Better: lower},
	{Name: "sweep.self_share", Unit: "share", Better: lower},
	{Name: "core.wsp_sim_us_per_cell", Unit: "us", Better: lower},
	{Name: "sim.events_per_cell", Unit: "count", Better: lower, exact: true},
	{Name: "sim.ns_per_event", Unit: "ns", Better: lower},
	{Name: "sim.floor_ns_per_event", Unit: "ns", Better: lower},
	{Name: "sim.efficiency", Unit: "ratio", Better: higher},
	{Name: "pipeline.hetpipe-fifo.ns_per_mb", Unit: "ns", Better: lower},
	{Name: "pipeline.hetpipe-overlap.ns_per_mb", Unit: "ns", Better: lower},
	{Name: "pipeline.gpipe.ns_per_mb", Unit: "ns", Better: lower},
	{Name: "pipeline.1f1b.ns_per_mb", Unit: "ns", Better: lower},
	{Name: "pipeline.interleaved.ns_per_mb", Unit: "ns", Better: lower},
	{Name: "pipeline.2bw.ns_per_mb", Unit: "ns", Better: lower},
	{Name: "wsp.coord_ns_per_op", Unit: "ns", Better: lower},
	{Name: "fault.materialize_us", Unit: "us", Better: lower},
	{Name: "core.sim_tp_geomean", Unit: "samples/s", Better: higher, exact: true},
	// serve-curve: the serving plane over the same engine.
	{Name: "serve.parse_us", Unit: "us", Better: lower},
	{Name: "serve.arrivals_ns_per_req", Unit: "ns", Better: lower},
	{Name: "serve.run_ns_per_req", Unit: "ns", Better: lower},
	{Name: "serve.setup_allocs_per_run", Unit: "count", Better: lower},
	{Name: "hetpipe.serve_copy_share", Unit: "share", Better: lower},
	{Name: "sim.events_per_req", Unit: "count", Better: lower, exact: true},
	{Name: "serve.sim_p99_ms", Unit: "sim_ms", Better: lower, exact: true},
	{Name: "serve.mean_batch_fill", Unit: "count", Better: higher, exact: true},
	// live-tcp: the data plane and the numeric task under it.
	{Name: "cluster.bringup_ms", Unit: "ms", Better: lower},
	{Name: "cluster.teardown_ms", Unit: "ms", Better: lower},
	{Name: "cluster.inproc_units_per_s", Unit: "1/s", Better: higher},
	{Name: "ps.wire_share", Unit: "share", Better: lower},
	{Name: "ps.push_us", Unit: "us", Better: lower},
	{Name: "ps.pullat_us", Unit: "us", Better: lower},
	{Name: "ps.wave_us", Unit: "us", Better: lower},
	{Name: "ps.wave_allocs", Unit: "count", Better: lower},
	{Name: "ps.sharded_push_us", Unit: "us", Better: lower},
	{Name: "ps.sharded_pullat_us", Unit: "us", Better: lower},
	{Name: "ps.shard_ops_per_wave", Unit: "count", Better: lower, exact: true},
	{Name: "train.grad_us", Unit: "us", Better: lower},
	{Name: "train.grad_share", Unit: "share", Better: higher},
	{Name: "tensor.axpy_ns_per_kelem", Unit: "ns", Better: lower},
	{Name: "obs.observer_share", Unit: "share", Better: lower},
	{Name: "train.final_loss", Unit: "loss", Better: lower, exact: true},
	{Name: "cluster.max_clock_distance", Unit: "count", Better: lower},
	// The measurement loop's own diagnostics for the selected workload.
	{Name: "harness.rounds", Unit: "count", Better: higher},
	{Name: "harness.round_p50_ms", Unit: "ms", Better: lower},
	{Name: "harness.round_p90_ms", Unit: "ms", Better: lower},
	{Name: "harness.wall_units_per_s", Unit: "1/s", Better: higher},
	{Name: "harness.ref_ms_p50", Unit: "ms", Better: lower},
	{Name: "harness.ref_ms_iqr", Unit: "ms", Better: lower},
	{Name: "harness.mem_ms_p50", Unit: "ms", Better: lower},
	{Name: "harness.rounds_straddled", Unit: "count", Better: lower},
	{Name: "harness.gc_cycles_per_round", Unit: "count", Better: lower},
	{Name: "harness.trace_overhead_share", Unit: "share", Better: lower},
}

// workload is one set of inputs the benchmark runs. prepare generates them
// from the harness seed, sets the program up (every step a set-up piece) and
// returns the rounds to repeat; ledger is the workload's section of the
// traced pass.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	// passes is the timed passes of a run of runSeconds.
	passes  int
	prepare func(h *harness) []roundKind
	ledger  func(h *harness, m map[string]float64)
}

var workloads = []workload{
	{
		Name:   "plan-cold",
		Why:    "cold hetpipe.New over 108 model/cluster/policy/schedule configs: partition DP, MaxNm and ChooseNm's solo sims do all the work, the WSP co-sim and ps none",
		passes: 5, prepare: preparePlanCold, ledger: planLedger,
	},
	{
		Name:   "sweep-warm",
		Why:    "serial sweep.Run over a 672-cell grid: ~70% WSP simulation on a warm engine through all six schedule runners, ~28% resolution amortised per family, the inverse of plan-cold",
		passes: 40, prepare: prepareSweepWarm, ledger: sweepLedger,
	},
	{
		Name:   "serve-curve",
		Why:    "Deployment.Serve on five traffic shapes: the same sim/sched layers driven forward-only and request-granular, so an engine change that helps training but hurts serving shows",
		passes: 120, prepare: prepareServeCurve, ledger: serveLedger,
	},
	{
		Name:   "live-tcp",
		Why:    "full Train on mini over loopback TCP: the only workload where ps wire, cluster, train and tensor work and sim/partition do not; a simulator change must not move it",
		passes: 40, prepare: prepareLiveTCP, ledger: liveLedger,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// benchmarkSpec is the shape of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func spec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
