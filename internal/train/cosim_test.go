package train_test

import (
	"context"
	"testing"

	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/obs"
	"hetpipe/internal/profile"
	"hetpipe/internal/train"
)

// deployment is four equal VRGQ virtual workers of the paper cluster on
// VGG-19 at Nm=2: core's co-simulation of it is the clock these tests put
// under the numerics.
func deployment(t *testing.T, d int) *core.Deployment {
	t.Helper()
	s, err := core.NewSystem(hw.Paper(), model.VGG19(), profile.Default(), 32)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := hw.AllocateByTypes(s.Cluster, []string{"VRGQ", "VRGQ", "VRGQ", "VRGQ"})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := s.Deploy(alloc, 2, d, core.PlacementLocal)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func simulate(t *testing.T, dep *core.Deployment, budget int, spec string, ob obs.Func) *core.MultiResult {
	t.Helper()
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := dep.Simulate(context.Background(), core.SimOptions{Minibatches: budget, Observer: ob, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

func TestLargerDReducesWaitingWithStraggler(t *testing.T) {
	// One slow worker. D=4 must wait less than D=0.
	const straggler = "slow:w3:x2"
	r0 := simulate(t, deployment(t, 0), 400, straggler, nil)
	r4 := simulate(t, deployment(t, 4), 400, straggler, nil)
	if r4.Waiting >= r0.Waiting {
		t.Errorf("waiting: D=4 %.2f >= D=0 %.2f", r4.Waiting, r0.Waiting)
	}
	if r0.Waiting <= 0 {
		t.Error("straggler config should induce waiting at D=0")
	}
	// Pipelining hides most of the wait: idle is a fraction of waiting.
	if r0.Idle > r0.Waiting {
		t.Errorf("idle %.2f exceeds waiting %.2f", r0.Idle, r0.Waiting)
	}
}

func TestWSPRespectsDistanceBound(t *testing.T) {
	for _, d := range []int{0, 2} {
		mr := simulate(t, deployment(t, d), 200, "slow:w0:x1.5,slow:w2:x4", nil)
		if mr.MaxClockDistance > d+1 {
			t.Errorf("D=%d: observed distance %d > %d", d, mr.MaxClockDistance, d+1)
		}
		if d > 0 && mr.MaxClockDistance < 2 {
			t.Errorf("D=%d: a 4x straggler never let a peer run ahead (distance %d)", d, mr.MaxClockDistance)
		}
	}
}

func TestWSPNumericsIndependentOfTiming(t *testing.T) {
	// The numerics know no time: snapshots at logical lag Nm and pulls of
	// clock-versioned prefixes are a pure function of N, Nm and D. Whatever
	// clock drives them — the co-simulation, fault-free or bent by stragglers,
	// slow links, a stalled shard and a crash, or none at all (RunWSP's
	// minibatch-major loop) — the weights must agree bit for bit. This is also
	// what lets the live sharded-PS runtime (internal/cluster) reproduce them.
	task, err := train.DefaultTask(7)
	if err != nil {
		t.Fatal(err)
	}
	const budget, faulted = 60, "slow:w0:x3,link:w1:x5,stall:s0:c2:0.5,crash:w2:mb9:down0.3"
	for _, d := range []int{0, 1, 4} {
		dep := deployment(t, d)
		cfg := train.WSPConfig{
			Task: task, Workers: len(dep.VWs), SLocal: dep.SLocal(), D: d, LR: 0.2,
			MaxMinibatches: budget, EvalEvery: 25,
		}
		want, err := train.RunWSP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := map[string]float64{}
		for _, spec := range []string{"", faulted} {
			num, err := train.NewNumerics(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mr := simulate(t, dep, budget, spec, func(e obs.Event) { num.Observe(e) })
			got := num.Finish()
			if got.Minibatches != want.Minibatches || got.Pushes != want.Pushes || got.Pulls != want.Pulls {
				t.Fatalf("D=%d %q: counts %d/%d/%d, minibatch-major %d/%d/%d", d, spec,
					got.Minibatches, got.Pushes, got.Pulls, want.Minibatches, want.Pushes, want.Pulls)
			}
			// Pulls are not compared with the clock's: a simulated pull transfer
			// fetches the newest clock and so spares later ones, while the
			// numerics, like the live runtime, credit exactly the gate's clock.
			if got.Pushes != mr.Pushes || got.MaxClockDistance != mr.MaxClockDistance {
				t.Errorf("D=%d %q: numerics saw %d pushes, distance %d; the co-simulation %d, %d", d, spec,
					got.Pushes, got.MaxClockDistance, mr.Pushes, mr.MaxClockDistance)
			}
			if got.MaxStaleness != want.MaxStaleness {
				t.Errorf("D=%d %q: staleness %d, minibatch-major %d", d, spec, got.MaxStaleness, want.MaxStaleness)
			}
			for i := range want.FinalWeights {
				if got.FinalWeights[i] != want.FinalWeights[i] {
					t.Fatalf("D=%d %q: weights diverge at %d: %g vs %g", d, spec, i, got.FinalWeights[i], want.FinalWeights[i])
				}
			}
			if got.Elapsed != mr.Elapsed {
				t.Errorf("D=%d %q: numerics ended at %g, the co-simulation at %g", d, spec, got.Elapsed, mr.Elapsed)
			}
			elapsed[spec] = got.Elapsed
		}
		if elapsed[""] >= elapsed[faulted] {
			t.Errorf("D=%d: the fault plan was supposed to cost time (%v)", d, elapsed)
		}
	}
}
