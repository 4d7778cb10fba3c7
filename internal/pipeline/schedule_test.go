package pipeline

import (
	"sort"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// planSched partitions m for one VW of the allocation under a schedule.
func planSched(t *testing.T, cl *hw.Cluster, m *model.Model, vw *hw.VirtualWorker, s sched.Schedule, nm, batch int) *partition.Plan {
	t.Helper()
	plan, err := partition.NewSched(profile.Default(), s).Partition(cl, m, vw, nm, batch)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestFIFOGoldenSolo pins the hetpipe-fifo schedule to the exact numbers the
// pre-refactor monolithic executor produced (captured at the commit that
// introduced the schedule subsystem, and re-baselined once when the time
// table went to multiples of sim's quantum): the executor must be bit-identical
// for the paper's own discipline.
func TestFIFOGoldenSolo(t *testing.T) {
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{"VRGQ"})
	if err != nil {
		t.Fatal(err)
	}
	plan := planSched(t, c, model.VGG19(), a.VWs[0], sched.FIFO, 4, 32)
	wantMem := []int64{8119902720, 1244667904, 978325504, 2008962880}
	for i, m := range wantMem {
		if plan.Stages[i].MemoryBytes != m {
			t.Errorf("stage %d memory = %d, want %d", i, plan.Stages[i].MemoryBytes, m)
		}
	}
	res, err := Run(Config{
		Plan: plan, Cluster: c, Perf: profile.Default(), Schedule: sched.FIFO,
		Minibatches: 24, Warmup: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput != 196.23656852329069 {
		t.Errorf("throughput = %.17g, want 196.23656852329069 (golden)", res.Throughput)
	}
	if float64(res.Elapsed) != 4.2950657465271433 {
		t.Errorf("elapsed = %.17g, want 4.2950657465271433 (golden)", float64(res.Elapsed))
	}
	if res.MaxGPUUtil != 0.89348123376454902 {
		t.Errorf("max util = %.17g, want 0.89348123376454902 (golden)", res.MaxGPUUtil)
	}
}

// TestNilScheduleIsFIFO checks that leaving Config.Schedule nil runs the
// paper's discipline, bit-identical to naming it explicitly.
func TestNilScheduleIsFIFO(t *testing.T) {
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{"VRGQ"})
	if err != nil {
		t.Fatal(err)
	}
	plan := planSched(t, c, model.VGG19(), a.VWs[0], nil, 4, 32)
	if plan.Schedule != sched.NameFIFO {
		t.Errorf("plan schedule = %q, want %q", plan.Schedule, sched.NameFIFO)
	}
	base := Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 16, Warmup: 2}
	implicit, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withFIFO := base
	withFIFO.Schedule = sched.FIFO
	explicit, err := Run(withFIFO)
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Throughput != explicit.Throughput || implicit.Elapsed != explicit.Elapsed {
		t.Errorf("nil schedule (%.17g, %v) differs from explicit FIFO (%.17g, %v)",
			implicit.Throughput, implicit.Elapsed, explicit.Throughput, explicit.Elapsed)
	}
}

// TestEveryScheduleCompletesInOrder runs each schedule over a heterogeneous
// pipeline and checks the shared executor contract: every minibatch
// completes, completion times are monotone, and throughput is positive.
func TestEverySchedulesCompletesInOrder(t *testing.T) {
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{"VRGQ"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sched.Names() {
		s, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := planSched(t, c, model.VGG19(), a.VWs[0], s, 4, 32)
		res, err := Run(Config{
			Plan: plan, Cluster: c, Perf: profile.Default(), Schedule: s,
			Minibatches: 20, Warmup: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Completions) != 20 {
			t.Errorf("%s: completions = %d, want 20", name, len(res.Completions))
		}
		if !sort.SliceIsSorted(res.Completions, func(i, j int) bool { return res.Completions[i] < res.Completions[j] }) {
			t.Errorf("%s: completions out of order", name)
		}
		if res.Throughput <= 0 {
			t.Errorf("%s: throughput %g, want > 0", name, res.Throughput)
		}
	}
}

// TestSchedulesOnSingleStageWorker exercises the k=1 degenerate pipeline
// (an NP-style single-GPU virtual worker) under every schedule.
func TestSchedulesOnSingleStageWorker(t *testing.T) {
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{"V"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sched.Names() {
		s, _ := sched.ByName(name)
		plan := planSched(t, c, model.ResNet50(), a.VWs[0], s, 2, 32)
		res, err := Run(Config{
			Plan: plan, Cluster: c, Perf: profile.Default(), Schedule: s,
			Minibatches: 8, Warmup: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Completions) != 8 {
			t.Errorf("%s: completions = %d, want 8", name, len(res.Completions))
		}
	}
}

// TestOverlapAtLeastFIFOOnEveryCatalogCluster is the Section 9 claim made
// checkable: communication/computation overlap never loses to serialized
// receives — on every catalog cluster, for both paper models, the overlap
// schedule's solo throughput is at least FIFO's at the same plan and Nm.
func TestOverlapAtLeastFIFOOnEveryCatalogCluster(t *testing.T) {
	perf := profile.Default()
	for _, ci := range hw.ClusterCatalog() {
		cl, err := hw.ClusterByName(ci.Name)
		if err != nil {
			t.Fatal(err)
		}
		var alloc *hw.Allocation
		for _, pol := range hw.Policies() {
			if a, err := hw.Allocate(cl, pol); err == nil {
				alloc = a
				break
			}
		}
		if alloc == nil {
			t.Fatalf("%s: no feasible allocation policy", ci.Name)
		}
		compared := 0
		for _, mn := range []string{"vgg19", "resnet152"} {
			m, err := model.ByName(mn)
			if err != nil {
				t.Fatal(err)
			}
			vw := alloc.VWs[0]
			nm := partition.NewSched(perf, sched.FIFO).MaxNm(cl, m, vw, 32, 4)
			if nm == 0 {
				continue // model does not fit this worker at any Nm
			}
			plan := planSched(t, cl, m, vw, sched.FIFO, nm, 32)
			run := func(s sched.Schedule) float64 {
				res, err := Run(Config{
					Plan: plan, Cluster: cl, Perf: perf, Schedule: s,
					Minibatches: 40, Warmup: 8,
				})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", ci.Name, mn, s.Name(), err)
				}
				return res.Throughput
			}
			fifoTP, overlapTP := run(sched.FIFO), run(sched.Overlap)
			if overlapTP < fifoTP*(1-1e-12) {
				t.Errorf("%s/%s: overlap %.6g < fifo %.6g samples/s", ci.Name, mn, overlapTP, fifoTP)
			}
			compared++
		}
		if compared == 0 {
			t.Errorf("%s: no model fit the first virtual worker; comparison skipped", ci.Name)
		}
	}
}

// TestOneF1BUsesLessMemoryThanFIFO checks the in-flight-activation model end
// to end: at the same Nm, the 1F1B plan's first-stage working set is no
// larger than FIFO's, and strictly smaller once Nm exceeds the stage depth.
func TestOneF1BUsesLessMemoryThanFIFO(t *testing.T) {
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{"VRGQ"})
	if err != nil {
		t.Fatal(err)
	}
	fifoPlan := planSched(t, c, model.VGG19(), a.VWs[0], sched.FIFO, 6, 32)
	f1bPlan := planSched(t, c, model.VGG19(), a.VWs[0], sched.OneF1B, 6, 32)
	if f1bPlan.Schedule != sched.NameOneF1B {
		t.Errorf("plan schedule = %q, want %q", f1bPlan.Schedule, sched.NameOneF1B)
	}
	if f1bPlan.Stages[0].MemoryBytes >= fifoPlan.Stages[0].MemoryBytes {
		t.Errorf("1f1b stage0 memory %d not below fifo %d at Nm=6",
			f1bPlan.Stages[0].MemoryBytes, fifoPlan.Stages[0].MemoryBytes)
	}
}
