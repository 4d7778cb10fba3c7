package serve

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/obs"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
)

// deployment resolves a paper-cluster deployment for serving tests.
func deployment(t testing.TB, schedule string, policy hw.Policy, nm int) *core.Deployment {
	t.Helper()
	return deploymentOn(t, hw.Paper(), schedule, policy, nm)
}

// deploymentOn resolves a deployment of vgg19 at batch 32 on the cluster.
func deploymentOn(t testing.TB, cluster *hw.Cluster, schedule string, policy hw.Policy, nm int) *core.Deployment {
	t.Helper()
	disc, err := sched.ByName(schedule)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemSched(cluster, model.VGG19(), profile.Default(), 32, disc)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := hw.Allocate(sys.Cluster, policy)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(alloc, nm, 0, core.PlacementDefault)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func traffic(t *testing.T, spec string) *Traffic {
	t.Helper()
	tr, err := ParseTraffic(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestServeDrains(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.EqualDistribution, 4)
	res, err := Run(context.Background(), dep, traffic(t, "poisson:r50:n400"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 400 || res.Offered != 400 {
		t.Fatalf("served %d of %d", res.Served, res.Offered)
	}
	if res.ThroughputRPS <= 0 || res.Duration <= 0 {
		t.Fatalf("degenerate throughput: %+v", res)
	}
	if res.Batches <= 0 || res.MeanBatchFill < 1 {
		t.Fatalf("degenerate batching: batches=%d fill=%g", res.Batches, res.MeanBatchFill)
	}
	if res.Latency.Count != 400 {
		t.Fatalf("latency population %d", res.Latency.Count)
	}
	if !(res.Latency.P50 <= res.Latency.P95 && res.Latency.P95 <= res.Latency.P99 && res.Latency.P99 <= res.Latency.Max) {
		t.Fatalf("percentiles not monotone: %s", res.Latency)
	}
	for i, tr := range res.Trace {
		if tr.Done < tr.At {
			t.Fatalf("request %d replied at %g before arriving at %g", i, tr.Done, tr.At)
		}
		if tr.Replica < 0 || tr.Replica >= len(res.Replicas) {
			t.Fatalf("request %d routed to replica %d of %d", i, tr.Replica, len(res.Replicas))
		}
	}
	total := 0
	for _, rs := range res.Replicas {
		total += rs.Requests
	}
	if total != res.Served {
		t.Fatalf("replica request counts sum to %d, served %d", total, res.Served)
	}
}

// TestSeedDeterminism is the serving conformance pin: the same traffic seed
// must reproduce a byte-identical request trace and latency summary on every
// run — fresh engine, warm engine, and after unrelated runs — for all three
// open-loop generators and the closed loop.
func TestSeedDeterminism(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.NodePartition, 4)
	specs := []string{
		"poisson:r80:n300:seed7:crit0.2",
		"diurnal:r80:a0.6:p4:n300:seed7:crit0.2",
		"bursty:r40:x5:on1:off3:n300:seed7:crit0.2",
		"closed:u16:t0.02:n300:seed7:crit0.2",
	}
	for _, spec := range specs {
		tr := traffic(t, spec)
		first, err := Run(context.Background(), dep, tr, Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		trace, summary := first.TraceString(), first.Latency.String()

		// Run 2: fresh engine.
		again, err := Run(context.Background(), dep, tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again.TraceString() != trace || again.Latency.String() != summary {
			t.Fatalf("%s: fresh-engine rerun diverged", spec)
		}

		// Run 3: warm engine that served different traffic first.
		eng := sim.New()
		if _, err := RunOn(context.Background(), eng, dep, traffic(t, "poisson:r200:n500:seed99"), Options{}); err != nil {
			t.Fatal(err)
		}
		warm, err := RunOn(context.Background(), eng, dep, tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if warm.TraceString() != trace || warm.Latency.String() != summary {
			t.Fatalf("%s: warm-engine rerun diverged", spec)
		}
		if !reflect.DeepEqual(first, warm) {
			t.Fatalf("%s: warm-engine result differs beyond the trace", spec)
		}
	}
}

// TestEmptyFaultPlanBitIdentical mirrors the training-side golden guard: an
// empty or nil plan must take exactly the fault-free code path.
func TestEmptyFaultPlanBitIdentical(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.EqualDistribution, 4)
	tr := traffic(t, "poisson:r80:n300:crit0.1")
	clean, err := Run(context.Background(), dep, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := fault.Parse("")
	if err != nil {
		t.Fatal(err)
	}
	for name, plan := range map[string]*fault.Plan{"nil": nil, "zero": {}, "parsed-empty": empty} {
		res, err := Run(context.Background(), dep, tr, Options{Faults: plan})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(clean, res) {
			t.Fatalf("%s plan diverges from the fault-free run", name)
		}
	}
}

func TestSlowdownStretchesLatency(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.EqualDistribution, 4)
	tr := traffic(t, "poisson:r60:n300")
	clean, err := Run(context.Background(), dep, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("slow:w0:x4")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(context.Background(), dep, tr, Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if slow.FaultInjections == 0 {
		t.Error("no injection recorded")
	}
	if slow.Latency.Mean <= clean.Latency.Mean {
		t.Errorf("4x straggler did not stretch mean latency: %g vs %g",
			slow.Latency.Mean, clean.Latency.Mean)
	}
}

// TestCrashRecovery is the acceptance pin for fault-plan serving: the run
// completes and the recovery counters surface.
func TestCrashRecovery(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.EqualDistribution, 4)
	tr := traffic(t, "poisson:r60:n300")
	plan, err := fault.Parse("crash:w1:mb3:down0.5")
	if err != nil {
		t.Fatal(err)
	}
	var injects, recovers int
	res, err := Run(context.Background(), dep, tr, Options{
		Faults: plan,
		Obs: func(e obs.Event) {
			switch e.Kind {
			case obs.KindFaultInject:
				injects++
			case obs.KindRecover:
				recovers++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != tr.N {
		t.Fatalf("crashed run served %d of %d", res.Served, tr.N)
	}
	if res.Crashes != 1 || res.Recoveries != 1 {
		t.Fatalf("crash counters: crashes=%d recoveries=%d", res.Crashes, res.Recoveries)
	}
	if injects == 0 || recovers != 1 {
		t.Fatalf("observer saw injects=%d recovers=%d", injects, recovers)
	}
}

// TestRoutingPrefersFastReplicasForCritical drives the heterogeneous NP
// deployment (replica GPU mixes VVVV > RRRR > GGGG > QQQQ) hard enough that
// bulk traffic spreads by backlog, and checks the critical class skews
// toward the fastest replica more than the bulk class does.
func TestRoutingPrefersFastReplicasForCritical(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.NodePartition, 4)
	res, err := Run(context.Background(), dep, traffic(t, "poisson:r400:n2000:crit0.3"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Under NP on the paper cluster, replica 0 is the all-V node — the
	// fastest GPU mix and the smallest pipeline fill.
	fast := 0
	var critFast, critAll, bulkFast, bulkAll int
	for _, tr := range res.Trace {
		if tr.Critical {
			critAll++
			if tr.Replica == fast {
				critFast++
			}
		} else {
			bulkAll++
			if tr.Replica == fast {
				bulkFast++
			}
		}
	}
	if critAll == 0 || bulkAll == 0 {
		t.Fatalf("degenerate class split: crit=%d bulk=%d", critAll, bulkAll)
	}
	critFrac := float64(critFast) / float64(critAll)
	bulkFrac := float64(bulkFast) / float64(bulkAll)
	if critFrac <= bulkFrac {
		t.Errorf("critical traffic does not prefer the fast replica: crit %.2f vs bulk %.2f", critFrac, bulkFrac)
	}
	served := 0
	for _, rs := range res.Replicas {
		if rs.Requests > 0 {
			served++
		}
	}
	if served < 2 {
		t.Errorf("offered load did not spread: only %d replicas served traffic", served)
	}
}

func TestClosedLoopSelfThrottles(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.EqualDistribution, 4)
	res, err := Run(context.Background(), dep, traffic(t, "closed:u8:t0.01:n200"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 200 {
		t.Fatalf("closed loop served %d of 200", res.Served)
	}
	// With 8 users and one outstanding request each, no more than 8 requests
	// can ever be in the system: every batch holds at most 8.
	if res.MeanBatchFill > 8 {
		t.Errorf("closed loop over-filled batches: %g", res.MeanBatchFill)
	}
}

func TestOverlapScheduleServes(t *testing.T) {
	for _, name := range sched.Names() {
		dep := deployment(t, name, hw.EqualDistribution, 4)
		res, err := Run(context.Background(), dep, traffic(t, "poisson:r50:n200"), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Served != 200 {
			t.Fatalf("%s: served %d of 200", name, res.Served)
		}
	}
}

func TestServeObserverStream(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.EqualDistribution, 4)
	var arrives, admits, replies int
	lastTime := -1.0
	_, err := Run(context.Background(), dep, traffic(t, "poisson:r50:n100"), Options{
		Obs: func(e obs.Event) {
			if e.Backend != "serve" {
				t.Fatalf("event backend %q", e.Backend)
			}
			if e.Time < lastTime {
				t.Fatalf("event time went backwards: %g after %g", e.Time, lastTime)
			}
			lastTime = e.Time
			switch e.Kind {
			case obs.KindArrive:
				arrives++
			case obs.KindAdmit:
				admits++
			case obs.KindReply:
				replies++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if arrives != 100 || replies != 100 {
		t.Fatalf("observer saw %d arrivals, %d replies; want 100 each", arrives, replies)
	}
	if admits == 0 {
		t.Fatal("no admit events")
	}
}

func TestServeContextCancel(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.EqualDistribution, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, dep, traffic(t, "poisson:r50:n5000"), Options{}); err == nil {
		t.Fatal("cancelled run did not fail")
	}
}

func TestCurveMonotoneOffer(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.EqualDistribution, 4)
	tr := traffic(t, "poisson:r1:n300")
	points, err := Curve(context.Background(), dep, tr, []float64{20, 80, 320}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d curve points", len(points))
	}
	// Higher offered load cannot lower latency percentiles on this
	// work-conserving system.
	if points[2].Latency.P95 < points[0].Latency.P95 {
		t.Errorf("p95 fell as offered load rose: %g -> %g", points[0].Latency.P95, points[2].Latency.P95)
	}
}

// A closed loop's offered load is set by its users, not a rate: Curve
// refuses it before running any point.
func TestCurveRejectsClosedLoop(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.EqualDistribution, 4)
	tr := traffic(t, "closed:u8:t0.05:n50")
	if points, err := Curve(context.Background(), dep, tr, []float64{30, 60}, Options{}); err == nil || !strings.Contains(err.Error(), "open-loop") {
		t.Fatalf("Curve on closed-loop traffic = %d points, error %v", len(points), err)
	}
}

// summaries sorts the two class splits and merges them; every figure must be
// the one sorting each of the three populations on its own gives, bit for
// bit — Mean included, which is summed in sorted order. The sizes straddle
// the radix sorter's small-population cut-off in both classes.
func TestSummaryMatchesThreeSorts(t *testing.T) {
	sorted := func(lat []float64) LatencySummary {
		lat = append([]float64(nil), lat...)
		sort.Float64s(lat)
		return summarize(lat)
	}
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		n        int
		critRate float64
	}{{0, 0.5}, {1, 0}, {1, 1}, {7, 0.5}, {1000, 0}, {1000, 1}, {1000, 0.1}, {4096, 0.5}, {20000, 0.2}} {
		trace := make([]RequestTrace, tc.n)
		var all, crit, bulk []float64
		for i := range trace {
			// Few distinct values, so the classes tie with each other often.
			v, c := 0.001*float64(1+rng.Intn(40))+rng.Float64()*float64(rng.Intn(2)), rng.Float64() < tc.critRate
			at := float64(rng.Intn(3))
			trace[i] = RequestTrace{At: at, Done: at + v, Critical: c}
			v = trace[i].Done - trace[i].At
			all = append(all, v)
			if c {
				crit = append(crit, v)
			} else {
				bulk = append(bulk, v)
			}
		}
		ga, gc, gb := summaries(trace)
		if wa, wc, wb := sorted(all), sorted(crit), sorted(bulk); ga != wa || gc != wc || gb != wb {
			t.Errorf("n=%d crit=%g: summary (%v | %v | %v), three sorts give (%v | %v | %v)", tc.n, tc.critRate, ga, gc, gb, wa, wc, wb)
		}
	}
}

// measureRun reports what one warm-engine RunOn allocates: calls to the
// allocator and bytes (runtime counters, exact whatever the collector does).
func measureRun(t *testing.T, eng *sim.Engine, dep *core.Deployment, tr *Traffic) (mallocs, bytes uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := RunOn(context.Background(), eng, dep, tr, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestPerRequestAllocationsPinned pins what the per-request path allocates:
// nothing but its share of the tables sized to the offer. A run of 20,000
// requests makes the allocator calls a run of 2,000 makes (give or take the
// replica rings' growth steps), and each extra request costs at most 56 B —
// its 32 B trace row, 16 B in the summariser's 2n buffer, 4 B of closed-loop
// user table. A fifth per-request table, a second copy of the trace, or an
// allocation on the arrival, admission or reply path fails here.
func TestPerRequestAllocationsPinned(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.EqualDistribution, 4)
	eng := sim.New()
	for _, shape := range []string{"poisson:r160", "closed:u32:t0.05"} {
		for _, crit := range []string{"", ":crit0.2"} {
			small, large := traffic(t, shape+":n2000"+crit), traffic(t, shape+":n20000"+crit)
			measureRun(t, eng, dep, large) // grow the engine's arena to its peak
			ms, bs := measureRun(t, eng, dep, small)
			ml, bl := measureRun(t, eng, dep, large)
			t.Logf("%s%s: n=2000 %d allocs %d B, n=20000 %d allocs %d B", shape, crit, ms, bs, ml, bl)
			// Three rings on each of four replicas, a couple of doublings each
			// when a longer run meets a deeper backlog.
			const ringSteps = 24
			if ml > ms+ringSteps || ms > ml+ringSteps {
				t.Errorf("%s%s: %d allocations at n=2000, %d at n=20000; the count must not scale with n", shape, crit, ms, ml)
			}
			if perReq := float64(bl-bs) / 18000; perReq > 56 {
				t.Errorf("%s%s: %.1f B per extra request, want <= 56", shape, crit, perReq)
			}
		}
	}
}
