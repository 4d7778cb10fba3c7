package pipeline

import (
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
)

// planInterleaved partitions m for one VW under the interleaved schedule at
// degree v.
func planInterleaved(t *testing.T, cl *hw.Cluster, m *model.Model, vw *hw.VirtualWorker, v, nm, batch int) *partition.Plan {
	t.Helper()
	plan, err := partition.NewInterleaved(profile.Default(), sched.Interleaved, v).Partition(cl, m, vw, nm, batch)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestInterleavedEpochAtMostFIFOOnPaperCluster is the Megatron-LM bubble
// claim made checkable on the paper cluster: cutting each GPU's model share
// into V chunks deepens the virtual pipeline (more round-trip boundary
// transfers, all overlapped with computation) while shrinking the per-device
// occupancy gaps, so with the WSP window wide enough to fill the deeper pipe
// (Nm = 2k) an interleaved V = 2 epoch finishes no later than the paper's
// serialized FIFO discipline.
//
// The claim is bandwidth-conditional, exactly as in Megatron: it holds where
// boundary activations are cheap relative to chunk compute. The two pinned
// instances were found by scanning the zoo x worker grid on the paper
// cluster — ResNet-152 (slim boundaries) on the cross-node ED worker VRGQ,
// and VGG-19 on the node-local QQQQ worker whose intra-node links absorb the
// fat early-conv activations. VGG-19 across the ED worker's IB links is the
// documented counterexample: 40-80 ms transfers dwarf 8-60 ms chunks and
// interleaving loses outright, which is why this test does not assert it.
func TestInterleavedEpochAtMostFIFOOnPaperCluster(t *testing.T) {
	perf := profile.Default()
	c := hw.Paper()
	cases := []struct {
		worker, model string
	}{
		{"VRGQ", "resnet152"},
		{"QQQQ", "vgg19"},
	}
	for _, tc := range cases {
		a, err := hw.AllocateByTypes(c, []string{tc.worker})
		if err != nil {
			t.Fatal(err)
		}
		vw := a.VWs[0]
		m, err := model.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		// One simulated epoch: enough minibatches that the fill/drain
		// transient does not decide the comparison either way.
		nm, epoch := 2*len(vw.GPUs), 192
		fifoPlan := planSched(t, c, m, vw, sched.FIFO, nm, 32)
		fifoRes, err := Run(Config{
			Plan: fifoPlan, Cluster: c, Perf: perf, Schedule: sched.FIFO,
			Minibatches: epoch,
		})
		if err != nil {
			t.Fatalf("%s/%s/fifo: %v", tc.worker, tc.model, err)
		}
		const v = 2
		plan := planInterleaved(t, c, m, vw, v, nm, 32)
		if plan.InterleaveDegree() != v {
			t.Fatalf("%s/%s: plan degree = %d, want %d", tc.worker, tc.model, plan.InterleaveDegree(), v)
		}
		res, err := Run(Config{
			Plan: plan, Cluster: c, Perf: perf, Schedule: sched.Interleaved,
			Minibatches: epoch,
		})
		if err != nil {
			t.Fatalf("%s/%s/interleaved v%d: %v", tc.worker, tc.model, v, err)
		}
		if float64(res.Elapsed) > float64(fifoRes.Elapsed)*(1+1e-12) {
			t.Errorf("%s/%s: interleaved v%d epoch %.4fs > fifo %.4fs",
				tc.worker, tc.model, v, float64(res.Elapsed), float64(fifoRes.Elapsed))
		}
	}
}

// TestTwoBWPeakMemoryBelowGPipe is the PipeDream-2BW memory claim made
// checkable: once Nm exceeds the stage depth, trading GPipe's Nm
// activation stashes for one extra weight version (2 versions + gradient
// buffer vs full-fill stashing) lowers the peak per-stage working set.
func TestTwoBWPeakMemoryBelowGPipe(t *testing.T) {
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{"VRGQ"})
	if err != nil {
		t.Fatal(err)
	}
	vw := a.VWs[0]
	m := model.VGG19()
	perf := profile.Default()
	// Nm comfortably above the stage depth k=4, bounded by what GPipe's
	// full-fill stash can still fit on the paper worker.
	nm := partition.NewSched(perf, sched.GPipe).MaxNm(c, m, vw, 32, 8)
	if nm <= len(vw.GPUs) {
		t.Fatalf("gpipe MaxNm = %d, need > stage depth %d for the claim to bind", nm, len(vw.GPUs))
	}
	peak := func(s sched.Schedule) int64 {
		plan := planSched(t, c, m, vw, s, nm, 32)
		var max int64
		for i := range plan.Stages {
			if plan.Stages[i].MemoryBytes > max {
				max = plan.Stages[i].MemoryBytes
			}
		}
		return max
	}
	gpipePeak, twobwPeak := peak(sched.GPipe), peak(sched.TwoBW)
	if twobwPeak > gpipePeak {
		t.Errorf("2bw peak stage memory %d > gpipe %d at Nm=%d", twobwPeak, gpipePeak, nm)
	}
}

// TestEveryScheduleSteadyStateAllocFree asserts the pooled-engine contract
// for the executor under all six schedules (interleaved at V=2) and in the
// forward-only mode serving uses: after a warmup run has grown the engine
// arena, re-running allocates a fixed amount independent of the minibatch
// count — the steady state schedules without allocating.
func TestEveryScheduleSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under the race detector")
	}
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{"VRGQ"})
	if err != nil {
		t.Fatal(err)
	}
	vw := a.VWs[0]
	m := model.VGG19()
	for _, name := range sched.Names() {
		s, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := planSched(t, c, m, vw, s, 4, 32)
		if name == sched.NameInterleaved {
			// Exercise the chunk routing proper, not its V=1 degenerate case.
			plan = planInterleaved(t, c, m, vw, 2, 4, 32)
		}
		measure := func(mbs int) float64 {
			eng := sim.New()
			cfg := Config{
				Plan: plan, Cluster: c, Perf: profile.Default(), Schedule: s,
				Minibatches: mbs, Warmup: 4,
			}
			if _, err := RunOn(eng, cfg); err != nil {
				t.Fatalf("%s: warm run: %v", name, err)
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := RunOn(eng, cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
		}
		short, long := measure(40), measure(120)
		if long > short {
			t.Errorf("%s: allocations grow with minibatch count (%.0f at 40 mbs, %.0f at 120)",
				name, short, long)
		}
		measureFwd := func(mbs int) float64 {
			eng := sim.New()
			done := make([]sim.Time, 0, mbs)
			window := s.InFlightCap(plan.VirtualStages(), plan.Nm)
			run := func() {
				if got, err := forwardOnly(eng, plan, s, window, mbs, done); err != nil || len(got) != mbs {
					t.Fatalf("%s forward-only: %d of %d microbatches, err %v", name, len(got), mbs, err)
				}
			}
			run()
			return testing.AllocsPerRun(5, run)
		}
		if short, long := measureFwd(40), measureFwd(120); long > short {
			t.Errorf("%s forward-only: allocations grow with microbatch count (%.0f at 40, %.0f at 120)",
				name, short, long)
		}
	}
}
