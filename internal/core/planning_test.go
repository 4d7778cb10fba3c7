package core

import (
	"fmt"
	"reflect"
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
// nothing is shared between workers. Deploy must equal it field for field.
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
		return s.vwPlan(vw, plan, res.Throughput, res.MaxGPUUtil), nil
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
		push, pull := s.syncTimes(vp, placement, len(alloc.VWs))
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

// planCases covers the three ways workers relate: paper/ED is four workers
// of one class, paper-x2/HD and mini/NP mix classes of several and of one.
func planCases() []planCase {
	var out []planCase
	for _, cp := range []struct {
		cluster string
		policy  hw.Policy
	}{{"paper", hw.EqualDistribution}, {"paper-x2", hw.HybridDistribution}, {"mini", hw.NodePartition}} {
		for _, m := range []string{"resnet152", "vgg19"} {
			out = append(out,
				planCase{cp.cluster, cp.policy, m, sched.FIFO, 0},
				planCase{cp.cluster, cp.policy, m, sched.OneF1B, 0},
				planCase{cp.cluster, cp.policy, m, sched.Interleaved, 2})
		}
	}
	return out
}

// TestDeployMatchesMemolessReference is the memo's correctness wall: with
// Nm chosen (0) and given (2), Deploy returns exactly what the reference
// does, every stage sits on its own worker's GPU, and no two workers' plans
// share Stages or Chunks memory.
func TestDeployMatchesMemolessReference(t *testing.T) {
	shared := 0
	for _, pc := range planCases() {
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
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v Nm=%d: deployment differs from the memo-less reference\n got %+v\nwant %+v", pc, nm, got, want)
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
}

// TestPlanningSharesOnlyWithinAClass: workers with the same GPU types but a
// different link between two stages are different classes.
func TestPlanningSharesOnlyWithinAClass(t *testing.T) {
	s := sys(t, model.VGG19())
	gpus := s.Cluster.GPUs() // node-major: 0-3 V, 4-7 R
	sameNode := &hw.VirtualWorker{GPUs: []*hw.GPU{gpus[0], gpus[1], gpus[4], gpus[5]}}
	twin := &hw.VirtualWorker{GPUs: []*hw.GPU{gpus[2], gpus[3], gpus[6], gpus[7]}}
	pc := s.newPlanning()
	if a, b := pc.class(sameNode), pc.class(twin); a != b {
		t.Errorf("VVRR workers with identical links landed in classes %d and %d", a, b)
	}
	// Same types, but built so V->V crosses nodes on a doubled cluster.
	cl2, err := hw.ClusterByName("paper-x2")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSystem(cl2, model.VGG19(), profile.Default(), 32)
	if err != nil {
		t.Fatal(err)
	}
	g2 := cl2.GPUs() // 0-7 V (two nodes), 8-15 R (two nodes)
	pcie := &hw.VirtualWorker{GPUs: []*hw.GPU{g2[0], g2[1], g2[8], g2[9]}}
	ib := &hw.VirtualWorker{GPUs: []*hw.GPU{g2[0], g2[4], g2[8], g2[9]}}
	pc2 := s2.newPlanning()
	if a, b := pc2.class(pcie), pc2.class(ib); a == b {
		t.Error("workers whose V-V link is PCIe and InfiniBand share a class")
	}
	a, b := pc2.planned(pcie, 2), pc2.planned(ib, 2)
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	if a.plan.Bottleneck == b.plan.Bottleneck {
		t.Error("the PCIe and InfiniBand workers got the same plan; the case no longer separates the classes")
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

// deploymentFigures flattens a deployment to its values, with every GPU
// replaced by its name.
func deploymentFigures(d *Deployment) []any {
	out := []any{d.Nm, d.D, d.Placement, d.PushTime, d.PullTime}
	for _, vp := range d.VWs {
		out = append(out, vp.Throughput, vp.Period, vp.FillLatency, vp.MaxUtil, vp.Plan.Bottleneck, vp.Plan.Nm, vp.Plan.Schedule, vp.Plan.Interleave)
		for _, st := range vp.Plan.Stages {
			out = append(out, st.GPU.Name(), st.Chunks, st.FwdTime, st.BwdTime, st.RecvActTime, st.RecvGradTime, st.MemoryBytes, st.MemoryCap)
		}
	}
	return out
}

// TestSystemTablesFollowReassignedFields: System's fields are assignable, so
// the shared tables must be rebuilt when one they depend on changes.
func TestSystemTablesFollowReassignedFields(t *testing.T) {
	s := sys(t, model.VGG19())
	alloc, err := hw.Allocate(s.Cluster, hw.EqualDistribution)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(alloc, 2, 0, PlacementDefault); err != nil {
		t.Fatal(err)
	}
	first := s.tab
	if _, err := s.Deploy(alloc, 3, 0, PlacementDefault); err != nil {
		t.Fatal(err)
	}
	if s.tab != first {
		t.Error("a second Deploy on an unchanged System rebuilt the cost tables")
	}
	s.Batch, s.Model = 16, model.ResNet152()
	got, err := s.Deploy(alloc, 2, 0, PlacementDefault)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceDeploy(s, alloc, 2, 0, PlacementDefault)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Deploy after reassigning Batch and Model planned with stale tables\n got %+v\nwant %+v", got, want)
	}
}

// BenchmarkDeployAutoNm is a cold Deploy with the Nm search on the paper's
// flagship configuration: ResNet-152 on the ED allocation (four VRGQ
// workers) of the paper cluster. The System is fresh each iteration, as it
// is for every hetpipe.New.
func BenchmarkDeployAutoNm(b *testing.B) {
	cl := hw.Paper()
	m := model.ResNet152()
	alloc, err := hw.Allocate(cl, hw.EqualDistribution)
	if err != nil {
		b.Fatal(err)
	}
	perf := profile.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSystem(cl, m, perf, 32)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Deploy(alloc, 0, 0, PlacementDefault); err != nil {
			b.Fatal(err)
		}
	}
}
