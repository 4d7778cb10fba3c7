package pipeline

import (
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
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
