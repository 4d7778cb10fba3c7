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

// BenchmarkPipelineSimulation measures the discrete-event cost of simulating
// 100 minibatches through a 4-stage heterogeneous pipeline.
func BenchmarkPipelineSimulation(b *testing.B) {
	c := hw.Paper()
	alloc, err := hw.AllocateByTypes(c, []string{"VRGQ"})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := partition.New(profile.Default()).Partition(c, model.ResNet152(), alloc.VWs[0], 4, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{
			Plan: plan, Cluster: c, Perf: profile.Default(),
			Minibatches: 100, Warmup: 20,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineSchedules measures the same 100-minibatch simulation
// under each schedule, so a regression in the executor's event count or
// allocation profile on any of its decision paths shows up against the
// committed BENCH_pipeline.json baseline.
func BenchmarkPipelineSchedules(b *testing.B) {
	c := hw.Paper()
	alloc, err := hw.AllocateByTypes(c, []string{"VRGQ"})
	if err != nil {
		b.Fatal(err)
	}
	perf := profile.Default()
	for _, name := range sched.Names() {
		s, err := sched.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		pt := partition.NewSched(perf, s)
		if name == sched.NameInterleaved {
			// Bench the chunk routing proper, not its V=1 degenerate case.
			pt = partition.NewInterleaved(perf, s, 2)
		}
		plan, err := pt.Partition(c, model.ResNet152(), alloc.VWs[0], 4, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(Config{
					Plan: plan, Cluster: c, Perf: perf, Schedule: s,
					Minibatches: 100, Warmup: 20,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunWindows is core's Nm search on one plateau: VGG-19 on a VRGQ
// worker under 1f1b, whose in-flight cap is the depth, 4, at every Nm from 4 to
// 8 — one pipeline, measured over five windows of 80 to 120 minibatches.
// "forked" takes the five in one RunWindows (120 minibatches and four drained
// tails); "separate" is the five RunOns it replaces (500 minibatches), kept as
// the yardstick: the two must stay about a factor of three apart.
func BenchmarkRunWindows(b *testing.B) {
	c := hw.Paper()
	alloc, err := hw.AllocateByTypes(c, []string{"VRGQ"})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := partition.NewSched(profile.Default(), sched.OneF1B).Partition(c, model.VGG19(), alloc.VWs[0], 8, 32)
	if err != nil {
		b.Fatal(err)
	}
	var windows []Window
	for nm := 4; nm <= 8; nm++ {
		windows = append(windows, Window{Minibatches: 40 + 10*nm, Warmup: 10 + 2*nm})
	}
	cfg := Config{Plan: plan, Schedule: sched.OneF1B}
	b.Run("forked", func(b *testing.B) {
		eng := sim.New()
		var fk Fork
		out := make([]Summary, len(windows))
		for i := 0; i < b.N; i++ {
			if err := RunWindows(eng, cfg, windows, &fk, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("separate", func(b *testing.B) {
		eng := sim.New()
		for i := 0; i < b.N; i++ {
			for _, w := range windows {
				cfg := cfg
				cfg.Minibatches, cfg.Warmup = w.Minibatches, w.Warmup
				if _, err := RunOn(eng, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
