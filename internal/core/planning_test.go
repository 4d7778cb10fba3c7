package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// referenceDeploy is Deploy without a planning context, as it stood before
// one existed: every MaxNm probe, every (worker, Nm) of the sweep and every
// worker of the final pass gets a fresh partitioner and a cold engine, and
// nothing is shared between workers. It is also the only place the original
// Nm search survives — a bisection per worker, then every Nm in 1..limit
// simulated in ascending order — so nothing here carries a plan or prunes a
// simulation. Deploy must equal it field for field (but for Planning, which
// counts work the reference does not do).
func referenceDeploy(s *System, alloc *hw.Allocation, nm, d int, placement PlacementKind) (*Deployment, error) {
	solo := func(vw *hw.VirtualWorker, nm int) (*VWPlan, error) {
		pt := &partition.Partitioner{Perf: s.Perf, Sched: s.schedule(), Interleave: s.Interleave}
		plan, err := pt.Partition(s.Cluster, s.Model, vw, nm, s.Batch)
		if err != nil {
			return nil, err
		}
		res, err := pipeline.Run(pipeline.Config{
			Plan: plan, Schedule: s.Schedule,
			Minibatches: measureMB(nm), Warmup: warmupMB(nm),
		})
		if err != nil {
			return nil, err
		}
		return &VWPlan{VW: vw, Plan: plan, Throughput: res.Throughput}, nil
	}
	if nm == 0 {
		limit := 8
		for _, vw := range alloc.VWs {
			pt := &partition.Partitioner{Perf: s.Perf, Sched: s.schedule(), Interleave: s.Interleave}
			m := pt.MaxNm(s.Cluster, s.Model, vw, s.Batch, 8)
			if m == 0 {
				return nil, fmt.Errorf("%s cannot host %s", vw.TypeString(), s.Model.Name)
			}
			limit = min(limit, m)
		}
		bestTp := -1.0
		for n := 1; n <= limit; n++ {
			total, ok := 0.0, true
			for _, vw := range alloc.VWs {
				vp, err := solo(vw, n)
				if err != nil {
					ok = false
					break
				}
				total += vp.Throughput
			}
			if ok && total > bestTp {
				nm, bestTp = n, total
			}
		}
		if nm == 0 {
			return nil, fmt.Errorf("no feasible Nm for %s", s.Model.Name)
		}
	}
	dep := &Deployment{Sys: s, Nm: nm, D: d, Placement: placement}
	for _, vw := range alloc.VWs {
		vp, err := solo(vw, nm)
		if err != nil {
			return nil, err
		}
		dep.VWs = append(dep.VWs, vp)
	}
	for _, vp := range dep.VWs {
		push, pull := s.syncTimes(vp, placement, len(alloc.VWs), s.hotServerBytes())
		dep.PushTime = append(dep.PushTime, push)
		dep.PullTime = append(dep.PullTime, pull)
	}
	return dep, nil
}

type planCase struct {
	cluster string
	policy  hw.Policy
	model   string
	sched   sched.Schedule
	v       int
}

func (pc planCase) String() string {
	return fmt.Sprintf("%s/%v/%s/%s/V%d", pc.cluster, pc.policy, pc.model, pc.sched.Name(), pc.v)
}

func (pc planCase) build(t *testing.T) (*System, *hw.Allocation) {
	t.Helper()
	cl, err := hw.ClusterByName(pc.cluster)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.ByName(pc.model)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystemSched(cl, m, profile.Default(), 32, pc.sched)
	if err != nil {
		t.Fatal(err)
	}
	s.Interleave = pc.v
	alloc, err := hw.Allocate(cl, pc.policy)
	if err != nil {
		t.Fatal(err)
	}
	return s, alloc
}

// planCases is hetperf plan-cold's cross product — three clusters x three
// policies x two models x six schedules (interleaved at V=2), 108 systems —
// or, when short, a sixth of it that still covers the three ways workers
// relate: paper/ED is four workers of one class, paper-x2/HD and mini/NP mix
// classes of several and of one.
func planCases(short bool) []planCase {
	var out []planCase
	for _, cluster := range []string{"paper", "paper-x2", "mini"} {
		for _, policy := range []hw.Policy{hw.NodePartition, hw.EqualDistribution, hw.HybridDistribution} {
			for _, m := range []string{"resnet152", "vgg19"} {
				for _, name := range sched.Names() {
					s, _ := sched.ByName(name)
					pc := planCase{cluster, policy, m, s, 0}
					if s.SupportsInterleave() {
						pc.v = 2
					}
					relation := cluster == "paper" && policy == hw.EqualDistribution ||
						cluster == "paper-x2" && policy == hw.HybridDistribution ||
						cluster == "mini" && policy == hw.NodePartition
					if short && !(relation && (s == sched.FIFO || s == sched.OneF1B || s == sched.Interleaved)) {
						continue
					}
					out = append(out, pc)
				}
			}
		}
	}
	return out
}

// sameAsReference compares a deployment with referenceDeploy's, Planning
// aside.
func sameAsReference(got, want *Deployment) bool {
	g := *got
	g.Planning = Planning{}
	return reflect.DeepEqual(&g, want)
}

// TestDeployMatchesMemolessReference is the correctness wall of everything
// planning skips — the memo, the carried plans, the pruned simulations: with
// Nm chosen (0) and given (2), Deploy returns exactly what the reference
// does, every stage sits on its own worker's GPU, and no two workers' plans
// share Stages or Chunks memory.
func TestDeployMatchesMemolessReference(t *testing.T) {
	shared := 0
	var total Planning
	cases := planCases(testing.Short())
	for _, pc := range cases {
		s, alloc := pc.build(t)
		for _, nm := range []int{0, 2} {
			got, gerr := s.Deploy(alloc, nm, 1, PlacementDefault)
			want, werr := referenceDeploy(s, alloc, nm, 1, PlacementDefault)
			if gerr != nil || werr != nil {
				// mini cannot host every model under every schedule at Nm=2;
				// the outcome must still agree.
				if (gerr == nil) != (werr == nil) {
					t.Errorf("%v Nm=%d: error %v, reference %v", pc, nm, gerr, werr)
				}
				continue
			}
			if !sameAsReference(got, want) {
				t.Errorf("%v Nm=%d: deployment differs from the memo-less reference\n got %+v\nwant %+v", pc, nm, got, want)
			}
			if nm == 0 {
				total.add(got.Planning)
			}
			stages := map[*partition.Stage]int{}
			chunks := map[*partition.Chunk]int{}
			for w, vp := range got.VWs {
				if vp.VW != alloc.VWs[w] {
					t.Fatalf("%v Nm=%d: VW %d is not the allocation's", pc, nm, w)
				}
				if o, dup := stages[&vp.Plan.Stages[0]]; dup {
					t.Errorf("%v Nm=%d: VWs %d and %d share a Stages array", pc, nm, o, w)
				}
				stages[&vp.Plan.Stages[0]] = w
				for si := range vp.Plan.Stages {
					st := &vp.Plan.Stages[si]
					if st.GPU != vp.VW.GPUs[si] {
						t.Errorf("%v Nm=%d: VW %d stage %d runs on %s, not its own %s", pc, nm, w, si, st.GPU.Name(), vp.VW.GPUs[si].Name())
					}
					for ci := range st.Chunks {
						if o, dup := chunks[&st.Chunks[ci]]; dup {
							t.Errorf("%v Nm=%d: VWs %d and %d share chunk memory", pc, nm, o, w)
						}
						chunks[&st.Chunks[ci]] = w
					}
				}
			}
			// Appending to one stage's chunk set must not reach another's.
			for _, vp := range got.VWs {
				for si := range vp.Plan.Stages {
					st := &vp.Plan.Stages[si]
					if cap(st.Chunks) != len(st.Chunks) {
						t.Errorf("%v Nm=%d: stage %d's chunk set has spare capacity %d into its neighbour", pc, nm, si, cap(st.Chunks)-len(st.Chunks))
					}
				}
			}
			if len(got.VWs) > 1 && got.VWs[0].VW.TypeString() == got.VWs[1].VW.TypeString() {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Error("no case had two workers of one class: the memo's hit path went untested")
	}
	if total.Carried == 0 || total.PrunedNm == 0 || total.Infeasible == 0 {
		t.Errorf("the Nm searches carried no plan, pruned no Nm or met no memory limit: %+v", total)
	}
	t.Logf("%d systems with Nm chosen: %+v", len(cases), total)

	// The same comparison where nothing was tuned by hand: random skewed
	// chains, sized so that memory binds at some Nm below the cap, on a random
	// cluster, policy, schedule, interleave degree and batch, Nm chosen.
	rounds := 80
	if testing.Short() {
		rounds = 20
	}
	r := rand.New(rand.NewSource(18))
	clusters := hw.ClusterNames()
	policies := []hw.Policy{hw.NodePartition, hw.EqualDistribution, hw.HybridDistribution}
	total = Planning{}
	deployed, refusedAll := 0, 0
	for round := 0; round < rounds; round++ {
		w := make([]float64, 16+r.Intn(24)) // the deepest worker has 8 GPUs, 16 virtual stages at V=2
		for i := range w {
			w[i] = math.Exp(r.NormFloat64()*1.5) * 1e9 / 3
		}
		m := model.Skewed("rnd", w, int64(1)<<(10+r.Intn(14)), int64(1)<<(17+r.Intn(8)))
		cl, err := hw.ClusterByName(clusters[r.Intn(len(clusters))])
		if err != nil {
			t.Fatal(err)
		}
		sc, err := sched.ByName(sched.Names()[r.Intn(len(sched.Names()))])
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := hw.Allocate(cl, policies[r.Intn(len(policies))])
		if err != nil {
			continue // whimpy has no HD
		}
		s, err := NewSystemSched(cl, m, profile.Default(), 1+r.Intn(64), sc)
		if err != nil {
			t.Fatal(err)
		}
		if sc.SupportsInterleave() {
			s.Interleave = 1 + r.Intn(2)
		}
		id := fmt.Sprintf("round %d: %d layers, batch %d, %d x %s..., %s V=%d", round, len(w), s.Batch, len(alloc.VWs), alloc.VWs[0].TypeString(), sc.Name(), s.Interleave)
		got, gerr := s.Deploy(alloc, 0, 1, PlacementDefault)
		want, werr := referenceDeploy(s, alloc, 0, 1, PlacementDefault)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: error %v, reference %v", id, gerr, werr)
		}
		if gerr != nil {
			refusedAll++
			continue
		}
		if !sameAsReference(got, want) {
			t.Fatalf("%s: deployment differs from the memo-less reference\n got %+v\nwant %+v", id, got, want)
		}
		deployed++
		total.add(got.Planning)
	}
	if deployed == 0 || refusedAll == 0 || total.Carried == 0 || total.PrunedNm == 0 || total.Infeasible == 0 {
		t.Errorf("degenerate random sweep: %d deployed, %d that fit at no Nm, %+v", deployed, refusedAll, total)
	}
	t.Logf("%d random systems deployed, %d fit at no Nm: %+v", deployed, refusedAll, total)
}

func (p *Planning) add(q Planning) {
	p.Solves += q.Solves
	p.Carried += q.Carried
	p.Infeasible += q.Infeasible
	p.Priced += q.Priced
	p.SoloWindows += q.SoloWindows
	p.PrunedNm += q.PrunedNm
	p.SoloMB += q.SoloMB
	p.SkippedMB += q.SkippedMB
}

// TestPlanningCounts pins what resolving a deployment costs, as Deployment
// reports it. The counts are a function of the inputs alone.
func TestPlanningCounts(t *testing.T) {
	for _, tc := range []struct {
		pc     planCase
		nm     int
		wantNm int
		want   Planning
	}{
		// Four VRGQ workers, one class: eight plans, of which the cuts change
		// five times under fifo and three under 1f1b's smaller stashes; the
		// windows at Nm 8..4 leave an incumbent that rules out Nm 3, 2 and 1.
		// Under 1f1b the in-flight cap is the depth, 4, so the five runs are one
		// pipeline over windows of 80 to 120 minibatches, each run on its own.
		{planCase{"paper", hw.EqualDistribution, "resnet152", sched.FIFO, 0}, 0, 4, Planning{Solves: 5, Carried: 3, Priced: 8422, SoloWindows: 5, PrunedNm: 3, SoloMB: 500, SkippedMB: 271}},
		{planCase{"paper", hw.EqualDistribution, "resnet152", sched.OneF1B, 0}, 0, 4, Planning{Solves: 3, Carried: 5, Priced: 4738, SoloWindows: 5, PrunedNm: 3, SoloMB: 500, SkippedMB: 465}},
		// A fill-drain wave stashes Nm activations on every stage: Nm=7 no
		// longer fits, and the probe that finds out is the scan's last.
		{planCase{"paper", hw.EqualDistribution, "resnet152", sched.GPipe, 0}, 0, 3, Planning{Solves: 6, Carried: 1, Infeasible: 1, Priced: 8098, SoloWindows: 5, PrunedNm: 1, SoloMB: 400, SkippedMB: 335}},
		// Four workers of four classes, memory to spare: one solve per class.
		// Nm 2 and 5 tie exactly, and the lowest wins.
		{planCase{"mini", hw.NodePartition, "vgg19", sched.FIFO, 0}, 0, 2, Planning{Solves: 4, Carried: 28, Priced: 120, SoloWindows: 28, PrunedNm: 1, SoloMB: 2520, SkippedMB: 2183}},
		// Nm given: one plan and one solo run per class, nothing to search.
		{planCase{"paper", hw.EqualDistribution, "resnet152", sched.FIFO, 0}, 2, 2, Planning{Solves: 1, Priced: 1640, SoloWindows: 1, SoloMB: 60, SkippedMB: 52}},
		{planCase{"mini", hw.NodePartition, "vgg19", sched.FIFO, 0}, 2, 2, Planning{Solves: 4, Priced: 120, SoloWindows: 4, SoloMB: 240, SkippedMB: 220}},
	} {
		s, alloc := tc.pc.build(t)
		dep, err := s.Deploy(alloc, tc.nm, 0, PlacementDefault)
		if err != nil {
			t.Errorf("%v Nm=%d: %v", tc.pc, tc.nm, err)
			continue
		}
		if dep.Nm != tc.wantNm || dep.Planning != tc.want {
			t.Errorf("%v Nm=%d: deployed at Nm=%d with %+v, want Nm=%d with %+v", tc.pc, tc.nm, dep.Nm, dep.Planning, tc.wantNm, tc.want)
		}
	}
	// hetperf plan-cold's 108 systems with Nm chosen: what the planner skips
	// (carried plans, re-solved DP entries, pruned Nm, repeating minibatches)
	// must not drift unseen. Solving every entry from scratch, the last
	// stage's at every end, Priced would be 1,336,543. Every class and Nm not
	// pruned is one solo run, and most of what the runs cover repeats.
	var total Planning
	for _, pc := range planCases(false) {
		s, alloc := pc.build(t)
		dep, err := s.Deploy(alloc, 0, 0, PlacementDefault)
		if err != nil {
			t.Fatalf("%v: %v", pc, err)
		}
		total.add(dep.Planning)
	}
	if want := (Planning{Solves: 584, Carried: 1289, Infeasible: 19, Priced: 724748, SoloWindows: 1140, PrunedNm: 306, SoloMB: 108860, SkippedMB: 86748}); total != want {
		t.Errorf("108 systems: %+v, want %+v", total, want)
	}
	// The runs find their periods from a hint of their state: they must skip
	// no fewer minibatches than when each completion's whole state was
	// hashed, 86,683. (A hint match opens a candidate whose state need not
	// equal the past one, so a period can be confirmed sooner.)
	if total.SkippedMB < 86683 {
		t.Errorf("108 systems: %d minibatches skipped, fewer than full-state detection's 86,683", total.SkippedMB)
	}
	if total.SkippedMB*4 < total.SoloMB*3 {
		t.Errorf("108 systems: %d of %d minibatches skipped, want 75 %%", total.SkippedMB, total.SoloMB)
	}
}

// TestChooseNmOnHandBuiltThroughputs drives the Nm search over solo figures
// written into the memo by hand (paper/ED: four workers of one class, so one
// entry per Nm), where the outcomes that matter can be placed exactly: ties,
// failed simulations, and a run exactly at its bound.
func TestChooseNmOnHandBuiltThroughputs(t *testing.T) {
	s := sys(t, model.ResNet152())
	alloc, err := hw.Allocate(s.Cluster, hw.EqualDistribution)
	if err != nil {
		t.Fatal(err)
	}
	// The per-worker round-trip bound at Nm=1, far above the hand-built
	// figures of the first cases so that nothing there is pruned.
	probe, _, err := s.SoloVW(alloc.VWs[0], 1, measureMB(1), warmupMB(1))
	if err != nil {
		t.Fatal(err)
	}
	bound1 := pipeline.ThroughputBound(probe.Plan, s.Schedule, measureMB(1), warmupMB(1))
	simFailed := errors.New("simulation failed")
	for _, tc := range []struct {
		name string
		tp   [9]float64 // by Nm, samples/s per worker
		bad  []int      // Nm whose simulation fails
		want int        // 0: no feasible Nm
	}{
		{name: "lowest of two equal totals", tp: [9]float64{1: .1, 2: .5, 3: .5, 4: .2, 5: .1, 6: .1, 7: .1, 8: .1}, want: 2},
		{name: "all equal", tp: [9]float64{1: .3, 2: .3, 3: .3, 4: .3, 5: .3, 6: .3, 7: .3, 8: .3}, want: 1},
		{name: "best at the top", tp: [9]float64{1: .1, 2: .2, 3: .3, 4: .4, 5: .5, 6: .6, 7: .7, 8: .8}, want: 8},
		{name: "failed sims are skipped", tp: [9]float64{1: .1, 2: .2, 3: 9, 4: .2, 5: .7, 6: .7, 7: .1, 8: 9}, bad: []int{3, 8}, want: 5},
		{name: "every sim fails", bad: []int{1, 2, 3, 4, 5, 6, 7, 8}, want: 0},
		// Nm=1 runs at its bound, bit for bit (the round-trip oracle pins it),
		// level with the incumbent from Nm=8: a bound equal to the incumbent
		// is not below it, so Nm=1 is evaluated, and as the lowest Nm it wins.
		{name: "a run at its bound", tp: [9]float64{1: bound1, 2: .1, 3: .1, 4: .1, 5: .1, 6: .1, 7: .1, 8: bound1}, want: 1},
	} {
		pc := s.newPlanning(alloc.VWs, 1, autoNmCap)
		for nm := 1; nm <= 8; nm++ {
			sp := pc.planned(alloc.VWs[0], nm)
			if sp.err != nil {
				t.Fatalf("Nm=%d: %v", nm, sp.err)
			}
			sp.simulated, sp.throughput = true, tc.tp[nm]
			if slices.Contains(tc.bad, nm) {
				sp.simErr = simFailed
			}
		}
		got, err := pc.chooseNm(alloc, 8)
		if (err != nil) != (tc.want == 0) || got != tc.want {
			t.Errorf("%s: chose Nm=%d (%v), want %d", tc.name, got, err, tc.want)
		}
		if pc.soloWindows != 0 {
			t.Errorf("%s: %d real simulations ran over the hand-built memo", tc.name, pc.soloWindows)
		}
	}
}

// TestPlanningSharesOnlyWithinAClass: workers with the same GPU types but a
// different link between two stages are different classes.
func TestPlanningSharesOnlyWithinAClass(t *testing.T) {
	s := sys(t, model.VGG19())
	gpus := s.Cluster.GPUs() // node-major: 0-3 V, 4-7 R
	sameNode := &hw.VirtualWorker{GPUs: []*hw.GPU{gpus[0], gpus[1], gpus[4], gpus[5]}}
	twin := &hw.VirtualWorker{GPUs: []*hw.GPU{gpus[2], gpus[3], gpus[6], gpus[7]}}
	pc := s.newPlanning(nil, 2, 1)
	if a, b := pc.class(sameNode), pc.class(twin); a != b {
		t.Errorf("VVRR workers with identical links landed in classes %d and %d", a, b)
	}
	// Same types, but built so V->V crosses nodes on a doubled cluster.
	cl2, err := hw.ClusterByName("paper-x2")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSystemSched(cl2, model.VGG19(), profile.Default(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2 := cl2.GPUs() // 0-7 V (two nodes), 8-15 R (two nodes)
	pcie := &hw.VirtualWorker{GPUs: []*hw.GPU{g2[0], g2[1], g2[8], g2[9]}}
	ib := &hw.VirtualWorker{GPUs: []*hw.GPU{g2[0], g2[4], g2[8], g2[9]}}
	pc2 := s2.newPlanning([]*hw.VirtualWorker{pcie, ib}, 2, 1)
	if a, b := pc2.class(pcie), pc2.class(ib); a == b {
		t.Error("workers whose V-V link is PCIe and InfiniBand share a class")
	}
	// The kit's plan is one scratch, re-priced per class: capture each
	// class's figure before pricing the other's.
	var bottleneck [2]float64
	for i, vw := range []*hw.VirtualWorker{pcie, ib} {
		if _, err := pc2.own(&pc2.kit.plan, vw, 2); err != nil {
			t.Fatal(err)
		}
		bottleneck[i] = pc2.kit.plan.Bottleneck
	}
	if bottleneck[0] == bottleneck[1] {
		t.Error("the PCIe and InfiniBand workers got the same plan; the case no longer separates the classes")
	}
}

// TestDeployReportsUnprofiledGPU: a worker with a GPU type the performance
// model cannot price fails at every Nm for that reason, so the Nm search must
// report it as a given Nm does, not as a worker that fits at no Nm.
func TestDeployReportsUnprofiledGPU(t *testing.T) {
	c := hw.NewCluster([]struct {
		Type  *hw.GPUType
		Count int
	}{
		{hw.TitanV, 2},
		{&hw.GPUType{Name: "Synthetic X", Code: 'X', MemoryBytes: 16 << 30}, 2},
	})
	s, err := NewSystemSched(c, model.VGG19(), profile.Default(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := &hw.Allocation{Policy: "custom", VWs: []*hw.VirtualWorker{{GPUs: c.GPUs()}}}
	_, given := s.Deploy(alloc, 2, 0, PlacementDefault)
	if given == nil || !strings.Contains(given.Error(), `no anchor or generic rate for GPU "X"`) || errors.Is(given, partition.ErrInfeasible) {
		t.Fatalf("Nm=2: error %v, want the profile's", given)
	}
	if _, chosen := s.Deploy(alloc, 0, 0, PlacementDefault); chosen == nil || chosen.Error() != given.Error() {
		t.Errorf("Nm chosen: error %v, want Nm=2's %v", chosen, given)
	}
}

// TestConcurrentDeploysOnOneSystem is the sweep's sharing pattern: many
// goroutines resolve different (Nm, placement) families on one System. Each
// must equal the serial result; run under -race it also proves the shared
// cost tables are built and read race-free.
func TestConcurrentDeploysOnOneSystem(t *testing.T) {
	type family struct {
		nm        int
		placement PlacementKind
	}
	families := []family{{0, PlacementDefault}, {0, PlacementLocal}, {1, PlacementDefault}, {2, PlacementLocal},
		{3, PlacementDefault}, {4, PlacementLocal}, {5, PlacementDefault}, {6, PlacementLocal}}
	for _, pc := range []planCase{
		{"paper", hw.EqualDistribution, "resnet152", sched.FIFO, 0},
		{"paper", hw.EqualDistribution, "vgg19", sched.Interleaved, 2},
	} {
		serialSys, alloc := pc.build(t)
		want := make([]*Deployment, len(families))
		for i, f := range families {
			dep, err := serialSys.Deploy(alloc, f.nm, 0, f.placement)
			if err != nil {
				t.Fatalf("%v %+v: %v", pc, f, err)
			}
			want[i] = dep
		}
		// A fresh System, so the goroutines race to build its tables.
		s, alloc := pc.build(t)
		got := make([]*Deployment, len(families))
		errs := make([]error, len(families))
		var wg sync.WaitGroup
		for i, f := range families {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = s.Deploy(alloc, f.nm, 0, f.placement)
			}()
		}
		wg.Wait()
		for i, f := range families {
			if errs[i] != nil {
				t.Errorf("%v %+v: %v", pc, f, errs[i])
				continue
			}
			// The two runs use different System, cluster and GPU instances,
			// so compare what was planned rather than the pointers.
			if g, w := deploymentFigures(got[i]), deploymentFigures(want[i]); !reflect.DeepEqual(g, w) {
				t.Errorf("%v %+v: concurrent deployment differs from serial\n got %+v\nwant %+v", pc, f, g, w)
			}
		}
	}
}

// TestConcurrentPlanningNeverSharesAKit: kits cross Systems and goroutines,
// so no two contexts planning at once may hold the same one. Eight goroutines
// Deploy at once, four on one shared System and four each on a System of its
// own, over models, schedules and interleave degrees that size a kit
// differently; every Deployment, Planning included, must equal its serial
// twin's. Under -race a shared kit is also a reported race.
func TestConcurrentPlanningNeverSharesAKit(t *testing.T) {
	type job struct {
		pc        planCase
		nm        int
		placement PlacementKind
	}
	shared := planCase{"paper", hw.EqualDistribution, "resnet152", sched.OneF1B, 0}
	jobs := []job{
		{shared, 0, PlacementDefault}, {shared, 0, PlacementLocal}, {shared, 3, PlacementDefault}, {shared, 0, PlacementDefault},
		{planCase{"paper", hw.EqualDistribution, "vgg19", sched.Interleaved, 2}, 0, PlacementDefault},
		{planCase{"paper", hw.HybridDistribution, "resnet152", sched.FIFO, 0}, 0, PlacementDefault},
		{planCase{"mini", hw.NodePartition, "vgg19", sched.GPipe, 0}, 0, PlacementDefault},
		{planCase{"paper-x2", hw.NodePartition, "resnet152", sched.Overlap, 0}, 2, PlacementDefault},
	}
	want := make([][]any, len(jobs))
	for i, j := range jobs {
		s, alloc := j.pc.build(t)
		dep, err := s.Deploy(alloc, j.nm, 0, j.placement)
		if err != nil {
			t.Fatalf("%v %+v: %v", j.pc, j, err)
		}
		want[i] = deploymentFigures(dep)
	}
	sharedSys, sharedAlloc := shared.build(t)
	got := make([]*Deployment, len(jobs))
	errs := make([]error, len(jobs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, j := range jobs {
		s, alloc := sharedSys, sharedAlloc
		if j.pc != shared {
			s, alloc = j.pc.build(t)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = s.Deploy(alloc, j.nm, 0, j.placement)
		}()
	}
	close(start)
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Errorf("%v %+v: %v", j.pc, j, errs[i])
		} else if g := deploymentFigures(got[i]); !reflect.DeepEqual(g, want[i]) {
			t.Errorf("%v %+v: concurrent deployment differs from serial\n got %+v\nwant %+v", j.pc, j, g, want[i])
		}
	}
}

// deploymentFigures flattens a deployment to its values, Planning included,
// with every GPU replaced by its name.
func deploymentFigures(d *Deployment) []any {
	out := []any{d.Nm, d.D, d.Placement, d.PushTime, d.PullTime, d.Planning}
	for _, vp := range d.VWs {
		out = append(out, vp.Throughput, vp.Plan.Bottleneck, vp.Plan.Nm, vp.Plan.Schedule, vp.Plan.Interleave)
		for _, st := range vp.Plan.Stages {
			out = append(out, st.GPU.Name(), st.Chunks, st.FwdTime, st.BwdTime, st.RecvActTime, st.RecvGradTime, st.MemoryBytes, st.MemoryCap)
		}
	}
	return out
}

// TestSystemTablesFollowReassignedFields: System's fields are assignable and
// its Perf editable, so the cost tables a Deploy plans with must follow every
// field they depend on, and the anchors, which no shared table holds, must be
// read from the System's own Perf.
func TestSystemTablesFollowReassignedFields(t *testing.T) {
	s := sys(t, model.VGG19())
	alloc, err := hw.Allocate(s.Cluster, hw.EqualDistribution)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		got, err := s.Deploy(alloc, 2, 0, PlacementDefault)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceDeploy(s, alloc, 2, 0, PlacementDefault)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAsReference(got, want) {
			t.Errorf("Deploy after %s planned with stale tables\n got %+v\nwant %+v", what, got, want)
		}
	}
	check("construction")
	s.Batch, s.Model = 16, model.ResNet152()
	check("reassigning Batch and Model")
	s.Perf = profile.Default()
	s.Perf.IB.Efficiency /= 2
	check("reassigning Perf to one with another link model")
	s.Perf.SetAnchor("ResNet-152", 'Q', 20)
	check("setting an anchor")
}

// TestPlansAreOwned: every plan planning hands out is its caller's alone,
// and nothing a Deployment holds points into the kit its planning context
// borrowed. The Nm search prices into the kit's scratch plan and keeps cuts
// in the kit's slabs, and a Deploy carves its workers' plans out of shared
// slabs, so aliasing is the hazard. Overwriting the kit's memo and cuts, as
// the next context to borrow it does, must leave every Deployment, Planning
// included, unchanged; and overwriting any one plan's stages and chunks must
// leave every other unchanged — each peer worker's, a second Deploy's on the
// same System, SoloVW's, and the kit's scratch.
func TestPlansAreOwned(t *testing.T) {
	s := sys(t, model.ResNet152())
	alloc, err := hw.Allocate(s.Cluster, hw.EqualDistribution) // one class: the tempting case
	if err != nil {
		t.Fatal(err)
	}
	emptyKits()
	var deps []*Deployment
	var plans []*partition.Plan
	var names []string
	for d := range 2 {
		dep, err := s.Deploy(alloc, 0, 0, PlacementDefault)
		if err != nil {
			t.Fatal(err)
		}
		deps = append(deps, dep)
		for w, vp := range dep.VWs {
			plans, names = append(plans, vp.Plan), append(names, fmt.Sprintf("Deploy %d VW %d", d, w))
		}
	}
	solo, _, err := s.SoloVW(alloc.VWs[0], 4, measureMB(4), warmupMB(4))
	if err != nil {
		t.Fatal(err)
	}
	kits.mu.Lock()
	k := kits.free[len(kits.free)-1] // the kit the Deploys and SoloVW borrowed in turn
	kits.mu.Unlock()
	if len(k.plan.Stages) == 0 || len(k.memo) == 0 || len(k.cuts) == 0 {
		t.Fatalf("the kit holds a scratch of %d stages, %d memo entries and %d cuts: the search used none of it",
			len(k.plan.Stages), len(k.memo), len(k.cuts))
	}
	before := make([][]any, len(deps))
	for d, dep := range deps {
		before[d] = deploymentFigures(dep)
	}
	for i := range k.memo {
		k.memo[i] = soloPlan{planned: true, cuts: k.memo[i].cuts, simulated: true, throughput: -1, bounded: true, bound: -1}
	}
	for i := range k.cuts {
		k.cuts[i] = -1
	}
	for d, dep := range deps {
		if got := deploymentFigures(dep); !reflect.DeepEqual(got, before[d]) {
			t.Errorf("overwriting the kit's memo and cuts changed Deploy %d\n got %+v\nwant %+v", d, got, before[d])
		}
	}
	plans = append(plans, solo.Plan, &k.plan)
	names = append(names, "SoloVW", "the kit's scratch")
	want := make([]planValues, len(plans))
	for i, p := range plans {
		want[i] = valuesOf(p)
	}
	for i, p := range plans {
		for si := range p.Stages {
			st := &p.Stages[si]
			st.FwdTime, st.BwdTime, st.RecvActTime, st.RecvGradTime, st.MemoryBytes = -1, -1, -1, -1, -1
			for ci := range st.Chunks {
				st.Chunks[ci] = partition.Chunk{Lo: -1, Hi: -1, FwdTime: -1, BwdTime: -1, RecvActTime: -1, RecvGradTime: -1}
			}
		}
		p.Bottleneck = -1
		want[i] = valuesOf(p)
		for j, q := range plans {
			if j != i && !reflect.DeepEqual(valuesOf(q), want[j]) {
				t.Errorf("overwriting %s's plan changed %s's", names[i], names[j])
			}
		}
	}
}

// emptyKits drops every kit on the free list. Concurrent tests leave up to
// GOMAXPROCS kits there, and a test that reads or counts the kits it borrows
// must see only its own: at a GOMAXPROCS lower than the list's length (as
// testing.AllocsPerRun sets) a released kit is dropped rather than kept.
func emptyKits() {
	kits.mu.Lock()
	kits.free = nil
	kits.mu.Unlock()
}

// planValues is a plan's values, copied out of its storage.
type planValues struct {
	plan   partition.Plan
	stages []partition.Stage
	chunks []partition.Chunk
}

func valuesOf(p *partition.Plan) planValues {
	v := planValues{plan: *p}
	v.plan.Stages = nil
	for _, st := range p.Stages {
		v.chunks = append(v.chunks, st.Chunks...)
		st.Chunks = nil
		v.stages = append(v.stages, st)
	}
	return v
}

// TestDeployAllocationsIndependentOfTheNmScan: what the Nm search keeps of a
// (class, Nm) it visits is cuts and figures in slabs, and what it prices and
// simulates goes through one scratch plan and one warm Runner — all of them
// a kit's, which planning borrows from the free list — over the process's
// cost tables. So a cold Deploy — on a fresh System over ByName's shared
// model, as every hetpipe.New makes — whose (model, batch, link models) was
// planned before allocates exactly what its Deployment keeps: the System,
// the Deployment, its sync times and its workers' plans; no table and no
// model check. A Deploy given the Nm the search chose allocates the same.
// Before the tables and models were shared, a cold Deploy here allocated 18
// times; before kits were pooled, 67; and before cuts replaced plans in the
// memo, about four more per visited (class, Nm).
func TestDeployAllocationsIndependentOfTheNmScan(t *testing.T) {
	cl := hw.Paper()
	alloc, err := hw.Allocate(cl, hw.EqualDistribution)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.ByName("resnet152")
	if err != nil {
		t.Fatal(err)
	}
	perf := profile.Default()
	deploy := func(nm int) (*Deployment, error) { // BenchmarkDeployAutoNm's shape
		s, err := NewSystemSched(cl, m, perf, 32, nil)
		if err != nil {
			return nil, err
		}
		return s.Deploy(alloc, nm, 0, PlacementDefault)
	}
	emptyKits()
	dep, err := deploy(0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(nm int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := deploy(nm); err != nil {
				t.Fatal(err)
			}
		})
	}
	searched, given := allocs(0), allocs(dep.Nm)
	// 1 System + 1 Deployment + 1 sync times + 5 plans.
	const kept = 8
	t.Logf("Nm searched: %.0f allocations (%d planned, %d solo runs); Nm=%d given: %.0f", searched,
		dep.Planning.Solves+dep.Planning.Carried+dep.Planning.Infeasible, dep.Planning.SoloWindows, dep.Nm, given)
	if searched != given {
		t.Errorf("a searching Deploy allocates %.0f, one given its Nm=%d %.0f", searched, dep.Nm, given)
	}
	if searched != kept {
		t.Errorf("a cold Deploy allocates %.0f times, want the %d its Deployment keeps", searched, kept)
	}
}

// BenchmarkDeployAutoNm is a cold Deploy with the Nm search on the paper's
// flagship configuration: ResNet-152 on the ED allocation (four VRGQ
// workers) of the paper cluster. The System is fresh each iteration, over
// ByName's shared model, as it is for every hetpipe.New.
func BenchmarkDeployAutoNm(b *testing.B) { benchmarkDeployAutoNm(b, hw.EqualDistribution) }

// BenchmarkDeployAutoNmHD is the same on the HD allocation, two VVQQ and two
// RRGG workers: two classes, so what the search keeps per class shows.
func BenchmarkDeployAutoNmHD(b *testing.B) { benchmarkDeployAutoNm(b, hw.HybridDistribution) }

func benchmarkDeployAutoNm(b *testing.B, policy hw.Policy) {
	cl := hw.Paper()
	m, err := model.ByName("resnet152")
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := hw.Allocate(cl, policy)
	if err != nil {
		b.Fatal(err)
	}
	perf := profile.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSystemSched(cl, m, perf, 32, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Deploy(alloc, 0, 0, PlacementDefault); err != nil {
			b.Fatal(err)
		}
	}
}
