package pipeline

import (
	"sort"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sim"
	"hetpipe/internal/trace"
)

func planFor(t *testing.T, m *model.Model, spec string, nm, batch int) (*hw.Cluster, *partition.Plan) {
	t.Helper()
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{spec})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.New(profile.Default()).Partition(c, m, a.VWs[0], nm, batch)
	if err != nil {
		t.Fatal(err)
	}
	return c, plan
}

func TestPipelineCompletesAllMinibatches(t *testing.T) {
	c, plan := planFor(t, model.VGG19(), "VVVV", 4, 32)
	res, err := Run(Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 20, Warmup: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completions) != 20 {
		t.Fatalf("completions = %d, want 20", len(res.Completions))
	}
	if !sort.SliceIsSorted(res.Completions, func(i, j int) bool { return res.Completions[i] < res.Completions[j] }) {
		t.Error("completions out of order")
	}
	if res.Throughput <= 0 {
		t.Error("throughput must be positive")
	}
}

func TestPipelineNm1MatchesSerialExecution(t *testing.T) {
	// With Nm=1 the pipeline degenerates to naive model parallelism: the
	// time per minibatch is the sum of all stage and transfer times.
	c, plan := planFor(t, model.VGG19(), "VVVV", 1, 32)
	res, err := Run(Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 4, Warmup: 0})
	if err != nil {
		t.Fatal(err)
	}
	var per float64
	perf := profile.Default()
	for i, s := range plan.Stages {
		per += s.FwdTime + s.BwdTime
		if i+1 < len(plan.Stages) {
			kind := c.LinkBetween(plan.Stages[i].GPU, plan.Stages[i+1].GPU)
			per += 2 * perf.TransferTime(plan.Model.BoundaryBytes(s.Hi()-1, 32), kind)
		}
	}
	want := 4 * per
	got := float64(res.Elapsed)
	if diff := got/want - 1; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Nm=1 elapsed = %v, want %v (serial)", got, want)
	}
}

func TestPipelineThroughputImprovesWithNm(t *testing.T) {
	// The core Figure 3 behaviour: larger Nm increases throughput.
	var prev float64
	for _, nm := range []int{1, 2, 4} {
		c, plan := planFor(t, model.ResNet152(), "RRRR", nm, 32)
		res, err := Run(Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 40, Warmup: 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput <= prev {
			t.Errorf("Nm=%d throughput %.1f <= previous %.1f", nm, res.Throughput, prev)
		}
		prev = res.Throughput
	}
}

func TestPipelineUtilizationImprovesWithNm(t *testing.T) {
	c1, plan1 := planFor(t, model.ResNet152(), "VVVV", 1, 32)
	r1, err := Run(Config{Plan: plan1, Cluster: c1, Perf: profile.Default(), Minibatches: 40, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	c4, plan4 := planFor(t, model.ResNet152(), "VVVV", 4, 32)
	r4, err := Run(Config{Plan: plan4, Cluster: c4, Perf: profile.Default(), Minibatches: 40, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r4.MaxGPUUtil <= r1.MaxGPUUtil {
		t.Errorf("utilization should grow with Nm: Nm=1 %.2f, Nm=4 %.2f", r1.MaxGPUUtil, r4.MaxGPUUtil)
	}
	// With Nm=1 only one GPU works at a time; utilization stays low.
	if r1.MaxGPUUtil > 0.6 {
		t.Errorf("Nm=1 max utilization = %.2f, expected < 0.6", r1.MaxGPUUtil)
	}
}

func TestPipelineThroughputBoundedByBottleneck(t *testing.T) {
	c, plan := planFor(t, model.VGG19(), "VRGQ", 4, 32)
	res, err := Run(Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 60, Warmup: 20})
	if err != nil {
		t.Fatal(err)
	}
	if ub := ThroughputBound(plan, nil, 60, 20); res.Throughput > ub*(1+1e-9) {
		t.Errorf("throughput %.1f exceeds the round-trip bound %.1f", res.Throughput, ub)
	}
}

func TestPipelineSchedulingRules(t *testing.T) {
	// Conditions 1 and 2 of Section 4: per stage, forward passes execute in
	// minibatch order and backward passes execute in minibatch order.
	tr := trace.New(4)
	c, plan := planFor(t, model.ResNet152(), "VVQQ", 4, 32)
	_, err := Run(Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 24, Warmup: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		spans := tr.StageSpans(s)
		lastFwd, lastBwd := 0, 0
		for _, sp := range spans {
			switch sp.Kind {
			case trace.Forward:
				if sp.Minibatch != lastFwd+1 {
					t.Fatalf("stage %d: forward %d after forward %d", s, sp.Minibatch, lastFwd)
				}
				lastFwd = sp.Minibatch
			case trace.Backward:
				if sp.Minibatch != lastBwd+1 {
					t.Fatalf("stage %d: backward %d after backward %d", s, sp.Minibatch, lastBwd)
				}
				lastBwd = sp.Minibatch
			}
		}
		if lastFwd != 24 || lastBwd != 24 {
			t.Fatalf("stage %d: saw %d fwd, %d bwd spans, want 24 each", s, lastFwd, lastBwd)
		}
	}
}

func TestPipelineNoDeviceOverlap(t *testing.T) {
	// A GPU executes one task at a time.
	tr := trace.New(4)
	c, plan := planFor(t, model.VGG19(), "VVVV", 4, 32)
	_, err := Run(Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 16, Warmup: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		spans := tr.StageSpans(s)
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].End-1e-12 {
				t.Fatalf("stage %d: span %d overlaps predecessor", s, i)
			}
		}
	}
}

func TestPipelineInflightNeverExceedsNm(t *testing.T) {
	for _, nm := range []int{1, 2, 3, 5} {
		c, plan := planFor(t, model.ResNet152(), "RRRR", nm, 32)
		eng := sim.New()
		pl, err := New(eng, Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 20, Warmup: 0})
		if err != nil {
			t.Fatal(err)
		}
		maxInflight := 0
		var probe int32
		probe = eng.Register(func(_, _ int32, _ float64) {
			if pl.inflight > maxInflight {
				maxInflight = pl.inflight
			}
			if pl.completed < 20 {
				eng.AfterID(1e-3, probe, 0, 0, 0)
			}
		})
		pl.Start()
		eng.AfterID(0, probe, 0, 0, 0)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if maxInflight > nm {
			t.Errorf("Nm=%d: observed %d in flight", nm, maxInflight)
		}
		if maxInflight != nm {
			t.Errorf("Nm=%d: pipeline never filled (max %d)", nm, maxInflight)
		}
	}
}

func TestPipelineInjectGate(t *testing.T) {
	// A gate that blocks minibatch 5 until released must stall the pipeline
	// at 4 completions, then Poke resumes it.
	c, plan := planFor(t, model.ResNet152(), "VVVV", 2, 32)
	eng := sim.New()
	allow := 4
	var pl *Pipeline
	var err error
	pl, err = New(eng, Config{
		Plan: plan, Cluster: c, Perf: profile.Default(),
		Minibatches: 8, Warmup: 0,
		InjectGate: func(p int) bool { return p <= allow },
	})
	if err != nil {
		t.Fatal(err)
	}
	pl.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if pl.completed != 4 {
		t.Fatalf("completed = %d, want 4 (gated)", pl.completed)
	}
	allow = 8
	pl.Poke()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if pl.completed != 8 {
		t.Fatalf("completed = %d, want 8 after release", pl.completed)
	}
}

func TestPipelineOnComplete(t *testing.T) {
	c, plan := planFor(t, model.VGG19(), "RRRR", 3, 32)
	var order []int
	_, err := Run(Config{
		Plan: plan, Cluster: c, Perf: profile.Default(),
		Minibatches: 9, Warmup: 0,
		OnComplete: func(p int, at sim.Time) { order = append(order, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range order {
		if p != i+1 {
			t.Fatalf("completion order %v, want 1..9 in order", order)
		}
	}
}

func TestPipelineSingleGPUVW(t *testing.T) {
	// k=1: the whole model on one GPU, fused fwd+bwd per minibatch.
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{"V"})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.New(profile.Default()).Partition(c, model.VGG19(), a.VWs[0], 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 10, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Single V GPU on VGG-19: the 131 img/s anchor, no comm.
	if res.Throughput < 125 || res.Throughput > 135 {
		t.Errorf("single-GPU throughput = %.1f, want ~131", res.Throughput)
	}
}

func TestPipelineConfigErrors(t *testing.T) {
	c, plan := planFor(t, model.VGG19(), "VVVV", 2, 32)
	if _, err := Run(Config{Plan: nil, Cluster: c, Perf: profile.Default(), Minibatches: 4}); err == nil {
		t.Error("nil plan should fail")
	}
	if _, err := Run(Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 0}); err == nil {
		t.Error("zero minibatches should fail")
	}
	if _, err := Run(Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 4, Warmup: 4}); err == nil {
		t.Error("warmup >= total should fail")
	}
	// Measure reads completion Warmup-1, so a negative warmup is refused first.
	if _, err := Run(Config{Plan: plan, Minibatches: 10, Warmup: -1}); err == nil || err.Error() != "pipeline: warmup must be >= 0, got -1" {
		t.Errorf("negative warmup: error %v", err)
	}
}

func TestGanttRenders(t *testing.T) {
	tr := trace.New(4)
	c, plan := planFor(t, model.VGG19(), "VVVV", 4, 32)
	_, err := Run(Config{Plan: plan, Cluster: c, Perf: profile.Default(), Minibatches: 8, Warmup: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	g := tr.Gantt(100)
	if len(g) == 0 || g == "(empty trace)\n" {
		t.Fatal("empty gantt")
	}
}
