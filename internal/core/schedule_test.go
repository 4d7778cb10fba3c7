package core

import (
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// deploySched builds a paper-cluster ED deployment of vgg19 under a schedule.
func deploySched(t *testing.T, s sched.Schedule, nm, d int) *Deployment {
	t.Helper()
	m, err := model.ByName("vgg19")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemSched(hw.Paper(), m, profile.Default(), 32, s)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := hw.Allocate(hw.Paper(), hw.EqualDistribution)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(alloc, nm, d, PlacementDefault)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestWSPGoldenFIFO pins the multi-VW WSP co-simulation under hetpipe-fifo
// to the exact numbers the pre-refactor executor produced (vgg19, paper
// cluster, ED, Nm=2, D=1, 48 minibatches per VW, warmup 8), re-baselined once
// when the time table went to multiples of sim.Quantum: the schedule
// subsystem must not perturb the paper's own discipline by a single bit.
func TestWSPGoldenFIFO(t *testing.T) {
	dep := deploySched(t, sched.FIFO, 2, 1)
	mr, err := dep.SimulateWSP(48, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Aggregate != 138.10273967852294 {
		t.Errorf("aggregate = %.17g, want 138.10273967852294 (golden)", mr.Aggregate)
	}
	if mr.Waiting != 118.78768489791798 {
		t.Errorf("waiting = %.17g, want 118.78768489791798 (golden)", mr.Waiting)
	}
	if mr.Idle != 104.47736959300568 {
		t.Errorf("idle = %.17g, want 104.47736959300568 (golden)", mr.Idle)
	}
	if mr.Pushes != 96 || mr.Pulls != 88 || mr.MaxClockDistance != 1 {
		t.Errorf("pushes/pulls/maxcd = %d/%d/%d, want 96/88/1 (golden)",
			mr.Pushes, mr.Pulls, mr.MaxClockDistance)
	}
	for w, tp := range mr.PerVW {
		if tp != 34.525684919630734 {
			t.Errorf("perVW[%d] = %.17g, want 34.525684919630734 (golden)", w, tp)
		}
	}
	// A nil schedule resolves to the same discipline.
	if dep.ScheduleName() != sched.NameFIFO {
		t.Errorf("schedule name = %q, want %q", dep.ScheduleName(), sched.NameFIFO)
	}
}

// TestWSPRunsUnderEverySchedule couples all four schedules through the WSP
// protocol end to end: the run completes, throughput is positive, and the
// clock-distance bound holds.
func TestWSPRunsUnderEverySchedule(t *testing.T) {
	for _, name := range sched.Names() {
		s, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dep := deploySched(t, s, 2, 1)
		if dep.ScheduleName() != name {
			t.Errorf("%s: deployment reports schedule %q", name, dep.ScheduleName())
		}
		mr, err := dep.SimulateWSP(48, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mr.Aggregate <= 0 {
			t.Errorf("%s: aggregate throughput %g, want > 0", name, mr.Aggregate)
		}
		if mr.MaxClockDistance > dep.D+1 {
			t.Errorf("%s: max clock distance %d exceeds D+1 = %d", name, mr.MaxClockDistance, dep.D+1)
		}
	}
}

// TestOverlapDeploymentAtLeastFIFO compares the full WSP deployment under
// overlap against fifo on every catalog cluster that can host vgg19 or
// resnet152: the Section 9 improvement must never lose.
func TestOverlapDeploymentAtLeastFIFO(t *testing.T) {
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
		compared := false
		for _, mn := range []string{"vgg19", "resnet152"} {
			m, err := model.ByName(mn)
			if err != nil {
				t.Fatal(err)
			}
			run := func(s sched.Schedule) (float64, bool) {
				sys, err := NewSystemSched(cl, m, profile.Default(), 32, s)
				if err != nil {
					t.Fatal(err)
				}
				dep, err := sys.Deploy(alloc, 2, 0, PlacementDefault)
				if err != nil {
					return 0, false // model does not fit this cluster
				}
				mr, err := dep.SimulateWSP(48, 8)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", ci.Name, mn, s.Name(), err)
				}
				return mr.Aggregate, true
			}
			fifoTP, ok1 := run(sched.FIFO)
			overlapTP, ok2 := run(sched.Overlap)
			if !ok1 || !ok2 {
				continue
			}
			if overlapTP < fifoTP*(1-1e-12) {
				t.Errorf("%s/%s: overlap aggregate %.6g < fifo %.6g", ci.Name, mn, overlapTP, fifoTP)
			}
			compared = true
		}
		if !compared {
			t.Errorf("%s: no model hosted; overlap-vs-fifo comparison skipped", ci.Name)
		}
	}
}
