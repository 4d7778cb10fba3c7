package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/serve"
	"hetpipe/internal/sim"
)

// Options tunes a sweep run.
type Options struct {
	// Workers bounds the number of scenarios simulated concurrently;
	// <= 0 means GOMAXPROCS. Each worker goroutine owns one warm
	// co-simulation on its own discrete-event engine, so results are
	// independent of the worker count.
	Workers int
	// OnResult, when non-nil, observes each finished scenario. Calls are
	// serialized but arrive in completion order, not scenario order.
	OnResult func(Result)
}

// Result is the structured outcome of one scenario.
type Result struct {
	// Scenario is the configuration that produced this result.
	Scenario Scenario `json:"scenario"`
	// Error is the failure message for infeasible scenarios (e.g. a model
	// that fits no partition of a whimpy virtual worker); empty on success.
	Error string `json:"error,omitempty"`
	// Throughput is the aggregate steady-state samples/sec for training
	// scenarios and served requests/sec for serving ones (Scenario.Traffic
	// non-empty).
	Throughput float64 `json:"throughput,omitempty"`
	// PerVW is each virtual worker's throughput (WSP only).
	PerVW []float64 `json:"perVW,omitempty"`
	// Workers counts data-parallel workers: virtual workers under WSP,
	// participating GPUs under Horovod.
	Workers int `json:"workers,omitempty"`
	// Excluded lists GPUs the Horovod baseline had to drop because the
	// whole model exceeds their memory.
	Excluded []string `json:"excluded,omitempty"`
	// Nm is the concurrent-minibatch count actually used (resolved from 0
	// = auto).
	Nm int `json:"nmResolved,omitempty"`
	// SLocal and SGlobal are the staleness bounds implied by Nm and D.
	SLocal  int `json:"slocal,omitempty"`
	SGlobal int `json:"sglobal,omitempty"`
	// Waiting and Idle decompose synchronization overhead in seconds
	// summed over virtual workers; Idle is the unhidden part.
	Waiting float64 `json:"waiting,omitempty"`
	Idle    float64 `json:"idle,omitempty"`
	// Pushes counts wave pushes to the parameter servers.
	Pushes int `json:"pushes,omitempty"`
	// MaxClockDistance is the largest observed clock skew between virtual
	// workers.
	MaxClockDistance int `json:"maxClockDistance,omitempty"`
	// FaultInjections counts fault activations, not plan clauses (see
	// core.MultiResult and serve.Result).
	FaultInjections int `json:"faultInjections,omitempty"`
	// Served counts drained requests and P50/P95/P99 are nearest-rank
	// request latencies in virtual seconds; MeanBatchFill is the mean
	// number of requests the admission layer coalesced per microbatch.
	// Serving scenarios only.
	Served        int     `json:"served,omitempty"`
	P50           float64 `json:"p50Sec,omitempty"`
	P95           float64 `json:"p95Sec,omitempty"`
	P99           float64 `json:"p99Sec,omitempty"`
	MeanBatchFill float64 `json:"meanBatchFill,omitempty"`
	// DegradationPct is the throughput lost to the scenario's fault plan,
	// in percent of the fault-free twin's throughput (same configuration
	// with an empty Faults spec). Zero for fault-free scenarios and when
	// the sweep has no fault-free twin to compare against.
	DegradationPct float64 `json:"degradationPct,omitempty"`
	// Plans carries each virtual worker's partition plan (Plans[i].GPUs is
	// virtual worker i's GPU mix). It is built once per deployment family and
	// shared, read-only, by every result of the family.
	Plans []PlanSummary `json:"plans,omitempty"`
}

// PlanSummary is one virtual worker's partition plan in a serializable form.
type PlanSummary struct {
	// GPUs is the VW's GPU mix as a type string, e.g. "VVQQ".
	GPUs string `json:"gpus"`
	// Stages lists the per-stage layer assignments.
	Stages []StageSummary `json:"stages"`
	// BottleneckSec is the slowest stage's per-minibatch time.
	BottleneckSec float64 `json:"bottleneckSec"`
}

// StageSummary is one pipeline stage of a partition plan.
type StageSummary struct {
	// GPU names the hosting device, e.g. "n1g2(R)".
	GPU string `json:"gpu"`
	// Lo and Hi bound the stage's layer envelope [Lo, Hi): the exact range
	// for contiguous stages, the outer bracket of the chunk set for
	// interleaved ones.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Chunks renders the stage's chunk set as "lo-hi" ranges joined with
	// "+", e.g. "0-5+12-17"; only present for interleaved stages (more than
	// one chunk).
	Chunks string `json:"chunks,omitempty"`
	// ExecSec is the stage's per-minibatch execution time.
	ExecSec float64 `json:"execSec"`
	// MemoryBytes is the stage's working set; MemoryCapBytes the device
	// capacity it must fit in.
	MemoryBytes    int64 `json:"memoryBytes"`
	MemoryCapBytes int64 `json:"memoryCapBytes"`
}

// Set is a completed sweep: the grid and one result per scenario, in
// expansion order. The layout is deliberately free of wall-clock timestamps
// and worker counts so that serialized output is reproducible run-to-run.
type Set struct {
	// Grid is the declaration that was expanded.
	Grid Grid `json:"grid"`
	// Results holds one entry per scenario, indexed by Scenario.Index.
	Results []Result `json:"results"`
}

// Failures counts scenarios that ended in an error.
func (s *Set) Failures() int {
	n := 0
	for i := range s.Results {
		if s.Results[i].Error != "" {
			n++
		}
	}
	return n
}

// ResolvedWorkers reports the pool size Run will actually use for a sweep of
// n scenarios: Options.Workers, defaulted to GOMAXPROCS and capped at n.
func (o Options) ResolvedWorkers(n int) int {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// memo is a concurrent build-once cache: the first caller of a key builds its
// value, every other caller — concurrent ones included — waits for and shares
// it (errors too). built counts the builds that actually ran, the reuse
// observability hook the tests assert on.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	built   atomic.Int64
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

func (c *memo[K, V]) get(key K, build func(K) (V, error)) (V, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		if c.entries == nil {
			c.entries = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		c.built.Add(1)
		e.val, e.err = build(key)
	})
	return e.val, e.err
}

// resolved is a deployment family: the deployment at D = 0 and its partition
// plans' summaries, which every result of the family shares.
type resolved struct {
	dep   *core.Deployment
	plans []PlanSummary
}

// faultKey names a fault plan materialized for a worker count.
type faultKey struct {
	spec    string
	workers int
}

// resolver caches what scenarios can share. The deployment cache, keyed by
// the scenario's core.Spec with D zeroed, holds the resolved deployment:
// partition plans, Nm selection, and sync transfer times are all
// D-independent, so one resolution serves every D value of the family via
// core.Deployment.WithD, and so do its plan summaries. Resolution dominates
// a scenario's cost, and a grid with a D axis of k values would otherwise
// repeat it k times per family. (What resolution starts from — the zoo
// model, the catalog cluster and its allocation, the cost tables — is
// already built once per process.) A second cache holds each fault spec
// parsed and materialized per worker count, so a cell neither parses its
// plan nor formats the plan's reports. The caches are safe for concurrent
// scenario workers (the values are read-only during simulation) and do not
// affect determinism: each value is a pure function of its key.
type resolver struct {
	deployments memo[core.Spec, resolved]
	faults      memo[faultKey, *fault.Plan]
}

// spec names the scenario's deployment the way every other entry point does.
func (sc *Scenario) spec() core.Spec {
	return core.Spec{
		Model: sc.Model, Cluster: sc.Cluster, Policy: sc.Policy, Schedule: sc.Schedule,
		Interleave: sc.Interleave, Batch: sc.Batch, Nm: sc.Nm, D: sc.D,
		Local: sc.Placement == PlacementLocal,
	}
}

// deployment returns the family deployment for sp, resolving it on first
// use, re-bound to the spec's D, and the family's plan summaries.
func (r *resolver) deployment(sp core.Spec) (*core.Deployment, []PlanSummary, error) {
	d := sp.D
	sp.D = 0
	fam, err := r.deployments.get(sp, func(sp core.Spec) (fam resolved, err error) {
		if fam.dep, err = sp.Resolve(); err == nil {
			fam.plans = planSummaries(fam.dep)
		}
		return fam, err
	})
	if err != nil {
		return nil, nil, err
	}
	dep, err := fam.dep.WithD(d)
	return dep, fam.plans, err
}

// faultPlan returns the fault spec's plan materialized for a run of workers
// virtual workers, parsing and materializing it on first use.
func (r *resolver) faultPlan(spec string, workers int) (*fault.Plan, error) {
	return r.faults.get(faultKey{spec, workers}, func(k faultKey) (p *fault.Plan, err error) {
		if p, err = fault.Parse(k.spec); err == nil {
			p, err = p.Materialize(k.workers)
		}
		return p, err
	})
}

// Run expands the grid and simulates every scenario on a bounded worker
// pool. Per-scenario failures are recorded in Result.Error rather than
// aborting the sweep; Run itself fails on an invalid grid or when ctx is
// cancelled (no partial Set is returned — a cancelled sweep's output would
// not be reproducible).
//
// Scenarios sharing a grid-cell family — same model, cluster, policy,
// placement, Nm, and batch — reuse one resolved deployment (partition plans
// and the auto-Nm choice are computed once per family, not once per D
// value); only the per-scenario WSP simulation runs fresh.
//
// Determinism guarantee: deployment resolution is a pure function of the
// family key and every scenario runs on its own single-goroutine
// discrete-event engine, so Results is identical — bit for bit — whatever
// Options.Workers is.
func Run(ctx context.Context, g Grid, opt Options) (*Set, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	scenarios, err := g.Expand()
	if err != nil {
		return nil, err
	}
	set, _, err := run(ctx, g, scenarios, opt)
	return set, err
}

// run is Run on expanded scenarios; it also reports the resolver so tests
// can assert on deployment reuse.
func run(ctx context.Context, g Grid, scenarios []Scenario, opt Options) (*Set, *resolver, error) {
	results := make([]Result, len(scenarios))
	res, err := each(ctx, scenarios, opt, func(i int, r Result) { results[i] = r })
	if err != nil {
		return nil, res, err
	}
	fillDegradation(results)
	return &Set{Grid: g, Results: results}, res, nil
}

// each is the worker pool behind Run and RunStream: it simulates every
// scenario on opt.ResolvedWorkers goroutines sharing one resolver, and hands
// scenario i's result to keep(i, r) on the goroutine that ran it (so keep may
// write only index i), then to opt.OnResult under a lock. Cancelling ctx stops
// the dispatch; each then returns ctx.Err().
func each(ctx context.Context, scenarios []Scenario, opt Options, keep func(i int, r Result)) (*resolver, error) {
	res := new(resolver)
	var notify sync.Mutex
	jobs := make(chan int)
	var wg sync.WaitGroup
	for range opt.ResolvedWorkers(len(scenarios)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One warm co-simulation per worker goroutine: its engine's
			// arena and queue, its pipelines, devices and coordinator grow to
			// the sweep's peak once and are re-initialised for every scenario
			// this worker draws.
			cs := core.NewCoSim(sim.New())
			for i := range jobs {
				r := runScenario(ctx, scenarios[i], res, cs)
				keep(i, r)
				if opt.OnResult != nil {
					notify.Lock()
					opt.OnResult(r)
					notify.Unlock()
				}
			}
		}()
	}
dispatch:
	for i := range scenarios {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return res, ctx.Err()
}

// fillDegradation computes each faulted scenario's throughput loss against
// its fault-free twin (same configuration, empty Faults spec), when the grid
// includes one. A pure post-pass over the finished results, so it cannot
// perturb determinism.
func fillDegradation(results []Result) {
	baseline := make(map[Scenario]float64)
	for i := range results {
		r := &results[i]
		if r.Scenario.Faults == "" && r.Error == "" && r.Scenario.SyncMode == syncWSP {
			baseline[r.Scenario.twin()] = r.Throughput
		}
	}
	for i := range results {
		r := &results[i]
		if r.Scenario.Faults == "" || r.Error != "" {
			continue
		}
		if base, ok := baseline[r.Scenario.twin()]; ok && base > 0 {
			r.DegradationPct = (base - r.Throughput) / base * 100
		}
	}
}

// runScenario simulates one scenario: the shared family deployment (via the
// resolver) plus a scenario-local simulation on the worker's warm
// co-simulation — or, for a serving cell, on its engine.
func runScenario(ctx context.Context, sc Scenario, res *resolver, cs *core.CoSim) Result {
	out := Result{Scenario: sc}
	fail := func(err error) Result {
		out.Error = err.Error()
		return out
	}
	if sc.SyncMode == syncHorovod {
		sys, err := core.Spec{Model: sc.Model, Cluster: sc.Cluster, Batch: sc.Batch}.System()
		if err != nil {
			return fail(err)
		}
		hr, err := sys.Horovod(nil)
		if err != nil {
			return fail(err)
		}
		out.Throughput = hr.Throughput
		out.Workers = len(hr.Workers)
		for _, g := range hr.Excluded {
			out.Excluded = append(out.Excluded, g.Name())
		}
		return out
	}
	dep, plans, err := res.deployment(sc.spec())
	if err != nil {
		return fail(err)
	}
	// The fault plan is scenario-local: it shapes the simulated timeline but
	// not the resolved deployment, which is why it is absent from the family
	// key and the resolver's reuse is unaffected. The same holds for the
	// traffic spec: a serving scenario drives the shared deployment with a
	// request generator instead of the WSP training simulation.
	plan, err := res.faultPlan(sc.Faults, len(dep.VWs))
	if err != nil {
		return fail(err)
	}
	out.Plans = plans
	if sc.Traffic != "" {
		tr, err := serve.ParseTraffic(sc.Traffic)
		if err != nil {
			return fail(err)
		}
		sr, err := serve.RunOn(ctx, cs.Engine(), dep, tr, serve.Options{Faults: plan})
		if err != nil {
			return fail(err)
		}
		out.Throughput = sr.ThroughputRPS
		out.Workers = len(dep.VWs)
		out.Nm = dep.Nm
		out.Served = sr.Served
		out.P50 = sr.Latency.P50
		out.P95 = sr.Latency.P95
		out.P99 = sr.Latency.P99
		out.MeanBatchFill = sr.MeanBatchFill
		out.FaultInjections = sr.FaultInjections
		return out
	}
	mr, err := cs.Run(ctx, dep, core.SimOptions{Minibatches: sc.MinibatchesPerVW, Faults: plan})
	if err != nil {
		return fail(err)
	}
	out.Throughput = mr.Aggregate
	out.PerVW = mr.PerVW
	out.Workers = len(dep.VWs)
	out.Nm = dep.Nm
	out.SLocal = dep.SLocal()
	out.SGlobal = dep.SGlobal()
	out.Waiting = mr.Waiting
	out.Idle = mr.Idle
	out.Pushes = mr.Pushes
	out.MaxClockDistance = mr.MaxClockDistance
	out.FaultInjections = mr.FaultInjections
	return out
}

// planSummaries renders the deployment's per-virtual-worker partition plans
// as serializable summaries; training and serving scenarios share them, so
// both row kinds report the same plan shape.
func planSummaries(dep *core.Deployment) []PlanSummary {
	out := make([]PlanSummary, 0, len(dep.VWs))
	for _, vp := range dep.VWs {
		ps := PlanSummary{GPUs: vp.VW.TypeString(), BottleneckSec: vp.Plan.Bottleneck}
		for i := range vp.Plan.Stages {
			st := &vp.Plan.Stages[i]
			ps.Stages = append(ps.Stages, StageSummary{
				GPU: st.GPU.Name(), Lo: st.Lo(), Hi: st.Hi(),
				Chunks:         chunkSpec(st),
				ExecSec:        st.ExecTime(),
				MemoryBytes:    st.MemoryBytes,
				MemoryCapBytes: st.MemoryCap,
			})
		}
		out = append(out, ps)
	}
	return out
}
