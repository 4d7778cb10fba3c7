package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hetpipe/internal/fault"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/obs"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
)

// cosimRun is one co-simulation's whole observable outcome.
type cosimRun struct {
	res    *MultiResult
	err    error
	events []obs.Event
	fired  uint64
}

func runGrouped(d *Deployment, plan *fault.Plan) cosimRun {
	var events []obs.Event
	eng := sim.New()
	res, err := d.SimulateWSPFaultsOn(context.Background(), eng, d.DefaultMinibatches(), 2*d.Nm, func(e obs.Event) { events = append(events, e) }, plan, 2)
	return cosimRun{res, err, events, eng.Fired()}
}

func runReference(d *Deployment, plan *fault.Plan) cosimRun {
	var events []obs.Event
	eng := sim.New()
	res, err := referenceSimulateWSP(context.Background(), d, eng, d.DefaultMinibatches(), 2*d.Nm, func(e obs.Event) { events = append(events, e) }, plan, 2)
	return cosimRun{res, err, events, eng.Fired()}
}

// sameRun fails the test unless the grouped run equals the reference run:
// the same error, or the same MultiResult and the same observer stream.
func sameRun(t *testing.T, name string, got, want cosimRun) {
	t.Helper()
	if got.err != nil || want.err != nil {
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			t.Errorf("%s: error %v, reference %v", name, got.err, want.err)
		}
		return
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("%s: result differs from the per-worker reference\n got %+v\nwant %+v", name, got.res, want.res)
	}
	if len(got.events) != len(want.events) {
		t.Errorf("%s: %d observer events, reference %d", name, len(got.events), len(want.events))
		return
	}
	for i := range got.events {
		if got.events[i] != want.events[i] {
			t.Errorf("%s: observer event %d is %+v, reference %+v", name, i, got.events[i], want.events[i])
			return
		}
	}
}

// namedPlan is one point of the property test's fault axis.
type namedPlan struct {
	name string
	plan *fault.Plan
}

// cosimFaults is the property test's fault axis for a deployment of n
// workers. Clauses that name a worker the deployment does not have stay in:
// both paths must then refuse the plan alike.
func cosimFaults(t *testing.T, n int) []namedPlan {
	t.Helper()
	every := &fault.Plan{}
	for w := 0; w < n; w++ {
		every.Slowdowns = append(every.Slowdowns, fault.Slowdown{Worker: w, Factor: 1.25})
	}
	out := []namedPlan{{"none", nil}, {"slow-every-worker", every}}
	for _, spec := range []string{
		"slow:w0:x2", "slow:w1:x1.5:mb8-24", "link:w3:x4", "crash:w2:mb40",
		"stall:s0:c3:0.05", "rand:0.5:seed7",
	} {
		p, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedPlan{spec, p})
	}
	return out
}

// TestGroupedCoSimMatchesPerWorkerReference is the grouping's correctness
// wall: over clusters, policies, schedules, Nm, D and fault plans the
// lock-step co-simulation returns exactly the MultiResult and exactly the
// observer stream of one pipeline per worker, from fewer events whenever two
// neighbours are twins.
func TestGroupedCoSimMatchesPerWorkerReference(t *testing.T) {
	scheds := schedVariants(t)
	nms, ds := []int{1, 2, 4}, []int{0, 1, 4, 16}
	if testing.Short() {
		nms, ds = []int{2}, []int{0, 4}
	}
	runs, merged := 0, 0
	for _, cluster := range []string{"paper", "paper-x2", "mini"} {
		cl, err := hw.ClusterByName(cluster)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range hw.Policies() {
			alloc, err := hw.Allocate(cl, policy)
			if err != nil {
				continue // mini has no HD allocation
			}
			for _, sv := range scheds {
				s, err := NewSystemSched(cl, model.VGG19(), profile.Default(), 32, sv.s)
				if err != nil {
					t.Fatal(err)
				}
				s.Interleave = sv.v
				for _, nm := range nms {
					base, err := s.Deploy(alloc, nm, 0, PlacementDefault)
					if err != nil {
						continue // this Nm does not fit the schedule's memory model
					}
					faults := cosimFaults(t, len(base.VWs))
					for _, d := range ds {
						dep, err := base.WithD(d)
						if err != nil {
							t.Fatal(err)
						}
						for _, f := range faults {
							name := fmt.Sprintf("%s/%v/%s/V%d/Nm%d/D%d/%s", cluster, policy, sv.s.Name(), sv.v, nm, d, f.name)
							got, want := runGrouped(dep, f.plan), runReference(dep, f.plan)
							sameRun(t, name, got, want)
							runs++
							if got.err == nil && got.fired < want.fired {
								merged++
							}
							if got.fired > want.fired {
								t.Errorf("%s: grouped run fired %d events, reference %d", name, got.fired, want.fired)
							}
						}
					}
				}
			}
		}
	}
	if runs < 100 || merged < runs/4 {
		t.Errorf("%d runs, %d of them with merged workers: the property went under-tested", runs, merged)
	}
}

// schedV is a schedule at an interleave degree (0: contiguous stages).
type schedV struct {
	s sched.Schedule
	v int
}

// schedVariants is every schedule, plus interleaved at V = 2.
func schedVariants(t *testing.T) []schedV {
	t.Helper()
	var out []schedV
	for _, name := range sched.Names() {
		s, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, schedV{s, 0})
		if s.SupportsInterleave() {
			out = append(out, schedV{s, 2})
		}
	}
	return out
}

func paperDeployment(t testing.TB, policy hw.Policy) *Deployment {
	t.Helper()
	return deploy(t, model.VGG19(), policy, 4, 2, PlacementDefault)
}

func groupSpans(d *Deployment, fp *fault.Plan) string {
	var b strings.Builder
	c := NewCoSim(sim.New())
	c.lockStepGroups(d, fp)
	for _, g := range c.groups {
		fmt.Fprintf(&b, "[%d,%d)", g.lo, g.hi)
	}
	return b.String()
}

// TestLockStepGroupsPerPolicy pins what merges on the paper cluster — ED's
// four VRGQ workers are one group, HD's VVQQ and RRGG pairs two, NP's four
// nodes four, and a worker-specific fault clause splits its worker off — and
// that the engine fires events in proportion.
func TestLockStepGroupsPerPolicy(t *testing.T) {
	for _, tc := range []struct {
		policy hw.Policy
		faults string
		groups string
		pipes  uint64 // pipelines stepped, of the reference's four
	}{
		{hw.EqualDistribution, "", "[0,4)", 1},
		{hw.HybridDistribution, "", "[0,2)[2,4)", 2},
		{hw.NodePartition, "", "[0,1)[1,2)[2,3)[3,4)", 4},
		{hw.EqualDistribution, "slow:w0:x2", "[0,1)[1,4)", 2},
		{hw.HybridDistribution, "slow:w0:x2", "[0,1)[1,2)[2,4)", 3},
		{hw.EqualDistribution, "link:w2:x4", "[0,2)[2,3)[3,4)", 3},
		{hw.EqualDistribution, "stall:s0:c3:0.05", "[0,4)", 1},
		{hw.EqualDistribution, "rand:0.5:seed7", "[0,1)[1,2)[2,3)[3,4)", 4},
	} {
		name := fmt.Sprintf("%v/%q", tc.policy, tc.faults)
		dep := paperDeployment(t, tc.policy)
		plan, err := fault.Parse(tc.faults)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := plan.Materialize(len(dep.VWs))
		if err != nil {
			t.Fatal(err)
		}
		if got := groupSpans(dep, fp); got != tc.groups {
			t.Errorf("%s: groups %s, want %s", name, got, tc.groups)
		}
		got, want := runGrouped(dep, plan), runReference(dep, plan)
		sameRun(t, name, got, want)
		// Every worker runs the same schedule over four stages and the same
		// minibatches, so pipelines differ in events only by how many pulls
		// their timing needs: a handful per run, none without a fault.
		lo, hi := want.fired*tc.pipes/4, want.fired*tc.pipes/4
		if tc.faults != "" {
			lo, hi = lo-lo/50, hi+hi/50
		}
		if got.fired < lo || got.fired > hi {
			t.Errorf("%s: fired %d events against the reference's %d, want %d/4 of them", name, got.fired, want.fired, tc.pipes)
		}
	}
}

// permuted returns d with its workers in the given order.
func permuted(d *Deployment, order ...int) *Deployment {
	c := *d
	c.VWs, c.PushTime, c.PullTime = nil, nil, nil
	for _, w := range order {
		c.VWs = append(c.VWs, d.VWs[w])
		c.PushTime = append(c.PushTime, d.PushTime[w])
		c.PullTime = append(c.PullTime, d.PullTime[w])
	}
	return &c
}

// TestOnlyNeighboursMerge: twins separated by a different worker stay
// separate groups — merging them would replay their effects out of worker
// order — and workers that differ only in a PS transfer time do not merge.
func TestOnlyNeighboursMerge(t *testing.T) {
	hd := paperDeployment(t, hw.HybridDistribution) // VVQQ VVQQ RRGG RRGG
	ed := paperDeployment(t, hw.EqualDistribution)
	slowPush, slowPull := *ed, *ed
	slowPush.PushTime = append([]float64(nil), ed.PushTime...)
	slowPush.PushTime[1] *= 1.5
	slowPull.PullTime = append([]float64(nil), ed.PullTime...)
	slowPull.PullTime[2] *= 1.5
	for _, tc := range []struct {
		name   string
		dep    *Deployment
		groups string
	}{
		{"A,B,A", permuted(hd, 0, 2, 1), "[0,1)[1,2)[2,3)"},
		{"A,B,A,B", permuted(hd, 0, 2, 1, 3), "[0,1)[1,2)[2,3)[3,4)"},
		{"B,A,A,B", permuted(hd, 2, 0, 1, 3), "[0,1)[1,3)[3,4)"},
		{"push time differs", &slowPush, "[0,1)[1,2)[2,4)"},
		{"pull time differs", &slowPull, "[0,2)[2,3)[3,4)"},
	} {
		if got := groupSpans(tc.dep, &fault.Plan{}); got != tc.groups {
			t.Errorf("%s: groups %s, want %s", tc.name, got, tc.groups)
		}
		for _, spec := range []string{"", "slow:w0:x2", "stall:s0:c3:0.05"} {
			plan, err := fault.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, tc.name+"/"+spec, runGrouped(tc.dep, plan), runReference(tc.dep, plan))
		}
	}
}

// TestMalformedDeploymentIsAnError: a hand-built or truncated deployment is
// refused with an error that says what is missing, never a panic.
func TestMalformedDeploymentIsAnError(t *testing.T) {
	good := paperDeployment(t, hw.EqualDistribution)
	mutate := func(f func(d *Deployment)) *Deployment {
		c := *good
		c.VWs = append([]*VWPlan(nil), good.VWs...)
		f(&c)
		return &c
	}
	for _, tc := range []struct {
		name string
		dep  *Deployment
		want string
	}{
		{"no workers", mutate(func(d *Deployment) { d.VWs = nil }), "core: empty deployment"},
		{"no system", mutate(func(d *Deployment) { d.Sys = nil }), "core: deployment has no system"},
		{"zero Nm", mutate(func(d *Deployment) { d.Nm = 0 }), "core: deployment Nm must be >= 1, got 0"},
		{"short push times", mutate(func(d *Deployment) { d.PushTime = d.PushTime[:3] }), "core: deployment has 4 workers but 3 push times"},
		{"no pull times", mutate(func(d *Deployment) { d.PullTime = nil }), "core: deployment has 4 workers but 0 pull times"},
		{"extra worker", mutate(func(d *Deployment) { d.VWs = append(d.VWs, d.VWs[0]) }), "core: deployment has 5 workers but 4 push times"},
		{"nil worker", mutate(func(d *Deployment) { d.VWs[2] = nil }), "core: deployment worker 2 has no plan"},
		{"nil plan", mutate(func(d *Deployment) { d.VWs[1] = &VWPlan{VW: d.VWs[1].VW} }), "core: deployment worker 1 has no plan"},
		{"stage without chunks", mutate(func(d *Deployment) {
			p := *d.VWs[3].Plan
			p.Stages = append([]partition.Stage(nil), p.Stages...)
			p.Stages[1].Chunks = nil
			d.VWs[3] = &VWPlan{VW: d.VWs[3].VW, Plan: &p}
		}), "core: deployment worker 3 stage 1 holds 0 chunks, want 1"},
	} {
		_, err := tc.dep.SimulateWSP(tc.dep.DefaultMinibatches(), 0)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := good.SimulateWSP(good.DefaultMinibatches(), 0); err != nil {
		t.Errorf("the unmutated deployment: %v", err)
	}
}

// warmCell is one co-simulation of TestWarmCoSimMatchesCold's sequence.
type warmCell struct {
	name    string
	dep     *Deployment
	plan    *fault.Plan
	observe bool
	stages  int
	v       int
}

// TestWarmCoSimMatchesCold is the warm co-simulation's wall. One CoSim runs,
// back to back in a shuffled order, ED, HD and NP deployments on the paper and
// mini clusters under every schedule (and interleaved at V = 2), each fault-free
// and under four fault plans, with and without an observer — so from one run to
// the next the lock-step group count, the stage count and the interleave
// degree grow and shrink — then every cell again in reverse, so that each runs
// after larger ones; every fifth cell first runs cancelled part-way. Every
// MultiResult and observer stream must equal a cold SimulateWSPFaults of the
// same inputs, bit for bit.
func TestWarmCoSimMatchesCold(t *testing.T) {
	var cells []warmCell
	for _, cluster := range []string{"paper", "mini"} {
		cl, err := hw.ClusterByName(cluster)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range hw.Policies() {
			alloc, err := hw.Allocate(cl, policy)
			if err != nil {
				continue // mini has no HD allocation
			}
			for _, sv := range schedVariants(t) {
				s, err := NewSystemSched(cl, model.VGG19(), profile.Default(), 32, sv.s)
				if err != nil {
					t.Fatal(err)
				}
				s.Interleave = sv.v
				dep, err := s.Deploy(alloc, 2, 1, PlacementDefault)
				if err != nil {
					t.Fatalf("%s/%v/%s/V%d: %v", cluster, policy, sv.s.Name(), sv.v, err)
				}
				for _, spec := range []string{"", "slow:w0:x2", "crash:w1:mb40", "link:w1:x2", "stall:s0:c3:0.5"} {
					plan, err := fault.Parse(spec)
					if err != nil {
						t.Fatal(err)
					}
					for _, observe := range []bool{false, true} {
						cells = append(cells, warmCell{
							name: fmt.Sprintf("%s/%v/%s/V%d/%q/observed=%v", cluster, policy, sv.s.Name(), sv.v, spec, observe),
							dep:  dep, plan: plan, observe: observe,
							stages: len(dep.VWs[0].Plan.Stages), v: dep.VWs[0].Plan.InterleaveDegree(),
						})
					}
				}
			}
		}
	}
	rand.New(rand.NewSource(28)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for i := len(cells) - 1; i >= 0; i-- {
		cells = append(cells, cells[i])
	}
	run := func(c warmCell, sim func(ob obs.Func) (*MultiResult, error)) cosimRun {
		var events []obs.Event
		var ob obs.Func
		if c.observe {
			ob = func(e obs.Event) { events = append(events, e) }
		}
		res, err := sim(ob)
		return cosimRun{res: res, err: err, events: events}
	}
	cs := NewCoSim(sim.New())
	type shape struct{ groups, stages, v int }
	var prev shape
	grew, shrank := map[string]bool{}, map[string]bool{}
	cancelled := 0
	for i, c := range cells {
		ctx := context.Background()
		mbs, warmup := c.dep.DefaultMinibatches(), 2*c.dep.Nm
		if i%5 == 0 {
			// A run cancelled part-way leaves jobs queued, tasks in the ready
			// rings and pulls in flight; the next run must not see them.
			stop, cancel := context.WithCancel(ctx)
			seen := 0
			_, err := cs.Run(stop, c.dep, mbs, warmup, func(obs.Event) {
				if seen++; seen == 20 {
					cancel()
				}
			}, c.plan, 2)
			cancel()
			if err == context.Canceled {
				cancelled++
			} else if err != nil {
				t.Fatalf("%s, cancelled: %v", c.name, err)
			}
		}
		want := run(c, func(ob obs.Func) (*MultiResult, error) {
			return c.dep.SimulateWSPFaults(ctx, mbs, warmup, ob, c.plan, 2)
		})
		got := run(c, func(ob obs.Func) (*MultiResult, error) {
			return cs.Run(ctx, c.dep, mbs, warmup, ob, c.plan, 2)
		})
		if want.err != nil {
			t.Fatalf("%s: %v", c.name, want.err)
		}
		sameRun(t, fmt.Sprintf("warm run %d, %s", i, c.name), got, want)
		cur := shape{len(cs.groups), c.stages, c.v}
		for name, d := range map[string]int{"groups": cur.groups - prev.groups, "stages": cur.stages - prev.stages, "V": cur.v - prev.v} {
			grew[name] = grew[name] || (i > 0 && d > 0)
			shrank[name] = shrank[name] || (i > 0 && d < 0)
		}
		prev = cur
	}
	for _, name := range []string{"groups", "stages", "V"} {
		if !grew[name] || !shrank[name] {
			t.Errorf("the sequence never grew (%v) or never shrank (%v) the %s", grew[name], shrank[name], name)
		}
	}
	if cancelled < len(cells)/10 {
		t.Errorf("only %d of %d runs were cut short by a cancellation", cancelled, (len(cells)+4)/5)
	}
}

// TestCoSimAllocsIndependentOfLength: a warm co-simulation allocates its
// MultiResult and its PerVW and nothing else — not per wave (every push and
// pull is a registered handler, not a closure), not per lock-step group (the
// groups' pipelines, devices and hooks are kept from run to run) — so 24 and
// 48 waves, and one group, two and four, allocate alike, grouped, split and
// faulted. The cold path, SimulateWSPFaultsOn, allocates alike at either
// length too.
func TestCoSimAllocsIndependentOfLength(t *testing.T) {
	faulted, err := fault.Parse("slow:w0:x2,link:w1:x2")
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		dep  *Deployment
		plan *fault.Plan
	}
	var cells []cell
	for _, tc := range []struct {
		policy hw.Policy
		plan   *fault.Plan
	}{
		{hw.EqualDistribution, nil},
		{hw.HybridDistribution, nil},
		{hw.NodePartition, nil},
		{hw.EqualDistribution, faulted},
	} {
		dep := paperDeployment(t, tc.policy)
		fp, err := tc.plan.Materialize(len(dep.VWs))
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{dep, fp})
	}
	cs := NewCoSim(sim.New())
	allocs := func(c cell, waves int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := cs.Run(context.Background(), c.dep, waves*c.dep.Nm, 4*c.dep.Nm, nil, c.plan, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range cells {
		allocs(c, 48) // grow the co-simulation to every cell's longer run first
	}
	want := allocs(cells[0], 24)
	for i, c := range cells {
		if short, long := allocs(c, 24), allocs(c, 48); short != want || long != want {
			t.Errorf("cell %d (%d groups): a warm run allocates %v times at 24 waves, %v at 48, the first cell %v",
				i, len(cs.groups), short, long, want)
		}
		eng := sim.New()
		cold := func(waves int) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := c.dep.SimulateWSPFaultsOn(context.Background(), eng, waves*c.dep.Nm, 4*c.dep.Nm, nil, c.plan, 0); err != nil {
					t.Fatal(err)
				}
			})
		}
		cold(48)
		if short, long := cold(24), cold(48); short != long {
			t.Errorf("cell %d: %v cold allocs at 24 waves, %v at 48", i, short, long)
		}
	}
	t.Logf("a warm co-simulation allocates %v times", want)
}

var coSimSink *MultiResult

// BenchmarkCoSim is one WSP co-simulation of vgg19 on the paper cluster (Nm 4,
// D 2, 24 waves) per allocation policy, on a warm co-simulation: ED is one
// lock-step group, HD two, NP four. allocs/op is the tripwire — a warm run
// allocates only its result, whatever the group count.
func BenchmarkCoSim(b *testing.B) {
	for _, policy := range []hw.Policy{hw.EqualDistribution, hw.HybridDistribution, hw.NodePartition} {
		b.Run(policy.String(), func(b *testing.B) {
			dep := paperDeployment(b, policy)
			cs := NewCoSim(sim.New())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if coSimSink, err = cs.Run(context.Background(), dep, dep.DefaultMinibatches(), 4*dep.Nm, nil, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
