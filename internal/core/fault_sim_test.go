package core

import (
	"context"
	"reflect"
	"testing"

	"hetpipe/internal/fault"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/obs"
)

// TestZeroFaultPlanBitIdentical is the golden guard of the fault subsystem:
// an empty (or nil) plan must take exactly the fault-free code path, so every
// field of the result — throughput, per-VW rates, waiting/idle decomposition,
// counts — is bit-identical to a fault-free Simulate's.
func TestZeroFaultPlanBitIdentical(t *testing.T) {
	dep := deploy(t, model.ResNet152(), hw.EqualDistribution, 2, 1, PlacementDefault)

	clean, err := dep.Simulate(context.Background(), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*fault.Plan{nil, {}} {
		faulted, err := dep.Simulate(context.Background(), SimOptions{Faults: plan, CheckpointEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(clean, faulted) {
			t.Fatalf("empty plan diverges from the fault-free run:\nclean:   %+v\nfaulted: %+v", clean, faulted)
		}
	}
}

func TestSlowdownDegradesThroughput(t *testing.T) {
	dep := deploy(t, model.ResNet152(), hw.EqualDistribution, 2, 1, PlacementDefault)
	clean, err := dep.Simulate(context.Background(), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("slow:w0:x3")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := dep.Simulate(context.Background(), SimOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Aggregate >= clean.Aggregate {
		t.Errorf("3x straggler did not degrade throughput: %g vs %g", slow.Aggregate, clean.Aggregate)
	}
	if slow.PerVW[0] >= clean.PerVW[0] {
		t.Errorf("straggler VW 0 rate %g not below clean %g", slow.PerVW[0], clean.PerVW[0])
	}
	if slow.FaultInjections == 0 {
		t.Error("no injection recorded")
	}
	// Under D=1 with a continuous straggler, WSP couples the peers to the
	// straggler's pace: their waiting time must grow.
	if slow.Waiting <= clean.Waiting {
		t.Errorf("straggler did not increase waiting: %g vs %g", slow.Waiting, clean.Waiting)
	}
	// The clock-distance bound still holds under faults.
	if slow.MaxClockDistance > dep.D+1 {
		t.Errorf("clock distance %d exceeds D+1", slow.MaxClockDistance)
	}
}

func TestCrashChargesDowntimeAndReplay(t *testing.T) {
	dep := deploy(t, model.ResNet152(), hw.EqualDistribution, 2, 0, PlacementDefault)
	clean, err := dep.Simulate(context.Background(), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("crash:w1:mb17:down5")
	if err != nil {
		t.Fatal(err)
	}
	// With checkpoints every 2 waves the replay is short...
	ckpt, err := dep.Simulate(context.Background(), SimOptions{Faults: plan, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	// ... without checkpoints the worker replays from minibatch 1.
	scratch, err := dep.Simulate(context.Background(), SimOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Elapsed <= clean.Elapsed {
		t.Errorf("crash did not lengthen the run: %g vs %g", ckpt.Elapsed, clean.Elapsed)
	}
	if scratch.Elapsed <= ckpt.Elapsed {
		t.Errorf("scratch replay (%g) not slower than checkpointed replay (%g)", scratch.Elapsed, ckpt.Elapsed)
	}
	if ckpt.Aggregate >= clean.Aggregate {
		t.Errorf("crash did not degrade throughput: %g vs %g", ckpt.Aggregate, clean.Aggregate)
	}
}

func TestStallAndLinkDelays(t *testing.T) {
	dep := deploy(t, model.ResNet152(), hw.EqualDistribution, 2, 0, PlacementDefault)
	clean, err := dep.Simulate(context.Background(), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The stall targets a clock advance well past the warmup window so the
	// delay lands inside the measured steady state.
	for _, spec := range []string{"stall:s0:c12:30", "link:w0:x8"} {
		plan, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := dep.Simulate(context.Background(), SimOptions{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if faulted.Aggregate >= clean.Aggregate {
			t.Errorf("%s did not degrade throughput: %g vs %g", spec, faulted.Aggregate, clean.Aggregate)
		}
		if faulted.FaultInjections == 0 {
			t.Errorf("%s recorded no injection", spec)
		}
	}
}

func TestSimEmitsInjectAndRecoverEvents(t *testing.T) {
	dep := deploy(t, model.ResNet152(), hw.EqualDistribution, 2, 0, PlacementDefault)
	plan, err := fault.Parse("crash:w0:mb9:down2,slow:w1:x2")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.Kind]int{}
	var faults []string
	ob := func(e obs.Event) {
		kinds[e.Kind]++
		if e.Kind == obs.KindFaultInject {
			faults = append(faults, e.Fault)
		}
	}
	if _, err := dep.Simulate(context.Background(), SimOptions{Observer: ob, Faults: plan, CheckpointEvery: 2}); err != nil {
		t.Fatal(err)
	}
	if kinds[obs.KindFaultInject] != 2 {
		t.Errorf("inject events %d, want 2 (%v)", kinds[obs.KindFaultInject], faults)
	}
	if kinds[obs.KindRecover] != 1 {
		t.Errorf("recover events %d, want 1", kinds[obs.KindRecover])
	}
}

// FaultInjections counts activations, not clauses: a worker slowed by two
// disjoint clauses is one injection, and two stalls of one clock advance are
// one.
func TestFaultInjectionsCountActivations(t *testing.T) {
	dep := deploy(t, model.ResNet152(), hw.EqualDistribution, 2, 0, PlacementDefault)
	for spec, want := range map[string]int{
		"slow:w0:x2:mb1-8,slow:w0:x3:mb20-30":           1,
		"slow:w0:x2:mb1-8,slow:w1:x3:mb20-30":           2,
		"stall:s0:c3:0.05,stall:s1:c3:0.05":             1,
		"link:w1:x2,link:w1:x3,slow:w1:x2,crash:w1:mb9": 3,
	} {
		plan, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dep.Simulate(context.Background(), SimOptions{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if res.FaultInjections != want {
			t.Errorf("%s: %d injections, want %d", spec, res.FaultInjections, want)
		}
	}
}

func TestBadFaultPlanRejected(t *testing.T) {
	dep := deploy(t, model.ResNet152(), hw.EqualDistribution, 2, 0, PlacementDefault)
	plan, err := fault.Parse("slow:w99:x2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Simulate(context.Background(), SimOptions{Faults: plan}); err == nil {
		t.Error("simulation accepted a plan naming a worker outside the deployment")
	}
	if _, err := dep.Simulate(context.Background(), SimOptions{CheckpointEvery: -1}); err == nil {
		t.Error("simulation accepted a negative checkpoint interval")
	}
}
