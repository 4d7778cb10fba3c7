package experiment

import (
	"context"
	"fmt"

	"hetpipe/internal/core"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

func init() {
	register("ablation-wavepush", "Section 5", "Ablation: per-wave vs per-minibatch push traffic", ablationWavePush)
	register("ablation-memaware", "Section 7", "Ablation: memory-aware vs uniform partitioning (ResNet-152 on GGGG, 6 GiB GPUs)", ablationMemoryAwarePartitioning)
	register("ablation-nmsweep", "Section 4", "Ablation: aggregate throughput vs forced Nm (ED-local)", ablationNmSweep)
	register("ablation-dsweep", "Section 5", "Ablation: throughput and waiting vs D (ResNet-152, NP)", ablationDSweep)
}

// ablationWavePush quantifies WSP's wave-aggregated push against SSP-style
// per-minibatch pushes: the communication volume shrinks by the wave size.
func ablationWavePush(_ context.Context, r *Report) error {
	for _, m := range model.PaperModels() {
		dep, err := core.Spec{Model: m.Name, Policy: "ED", Local: true}.Resolve()
		if err != nil {
			return err
		}
		perWave := float64(m.ParamBytes()) / 1e6
		perMB := perWave * float64(dep.Nm)
		r.addf("%-11s Nm=%d: push volume per wave %7.0f MB (WSP) vs %7.0f MB (per-minibatch, SSP-style) — %dx reduction",
			m.Name, dep.Nm, perWave, perMB, dep.Nm)
	}
	r.notef("Section 5: pushing u~ once per wave instead of per minibatch cuts PS traffic by the wave size")
	return nil
}

// ablationMemoryAwarePartitioning contrasts the Section 7 memory-aware
// partitioner against a naive uniform-layer split on memory-poor GPUs.
func ablationMemoryAwarePartitioning(_ context.Context, r *Report) error {
	m := model.ResNet152()
	perf := profile.Default()
	cluster := hw.Paper()
	alloc, err := hw.AllocateByTypes(cluster, []string{"GGGG"})
	if err != nil {
		return err
	}
	vw := alloc.VWs[0]
	k := len(vw.GPUs)
	for _, nm := range []int{1, 2, 4} {
		// Uniform split: equal layer counts per stage, ignoring memory.
		L := len(m.Layers)
		violated := 0
		var worst float64
		for stg := 0; stg < k; stg++ {
			lo, hi := stg*L/k, (stg+1)*L/k
			mem := perf.ChunkMemory(sched.Default(), m, lo, hi, stg, k, nm, batchSize)
			over := float64(mem) / float64(vw.GPUs[stg].Type.MemoryBytes)
			if over > 1 {
				violated++
			}
			if over > worst {
				worst = over
			}
		}
		// Memory-aware split from the real partitioner.
		plan, perr := partition.New(perf).Partition(cluster, m, vw, nm, batchSize)
		aware := "infeasible"
		if perr == nil {
			aware = fmt.Sprintf("feasible, bottleneck %.0f ms", plan.Bottleneck*1e3)
		}
		r.addf("Nm=%d: uniform split violates memory on %d/%d stages (worst %.2fx cap); memory-aware: %s",
			nm, violated, k, worst, aware)
	}
	r.notef("the Figure 1 memory-variance observation: early stages stash more in-flight activations")
	return nil
}

// ablationNmSweep shows aggregate ED-local throughput versus the forced Nm,
// demonstrating why HetPipe picks Nm by measured throughput rather than
// simply maximizing concurrency.
func ablationNmSweep(ctx context.Context, r *Report) error {
	for _, m := range model.PaperModels() {
		sp := core.Spec{Model: m.Name, Policy: "ED", Local: true}
		s, alloc, err := allocated(sp)
		if err != nil {
			return err
		}
		row := m.Name + ":"
		for nm := 1; nm <= 8; nm++ {
			sp.Nm = nm
			dep, err := sp.Deploy(s, alloc)
			if err != nil {
				row += fmt.Sprintf(" nm%d=--", nm)
				continue
			}
			res, err := dep.Simulate(ctx, core.SimOptions{})
			if err != nil {
				row += fmt.Sprintf(" nm%d=!!", nm)
				continue
			}
			row += fmt.Sprintf(" nm%d=%.0f", nm, res.Aggregate)
		}
		r.addf("%s", row)
	}
	r.notef("throughput rises with pipelining then falls when memory pressure unbalances the partitions")
	return nil
}

// ablationDSweep shows throughput and waiting versus the clock-distance
// bound D under the straggler-prone NP allocation.
func ablationDSweep(ctx context.Context, r *Report) error {
	sp := core.Spec{Model: "resnet152", Policy: "NP"}
	s, alloc, err := allocated(sp)
	if err != nil {
		return err
	}
	for _, d := range []int{0, 1, 2, 4, 8} {
		sp.D = d
		dep, err := sp.Deploy(s, alloc)
		if err != nil {
			return err
		}
		res, err := dep.Simulate(ctx, core.SimOptions{Minibatches: 30 * dep.Nm, Warmup: 5 * dep.Nm})
		if err != nil {
			return err
		}
		r.addf("D=%d: %4.0f img/s aggregate, waiting %6.1fs, idle %5.1fs, max clock distance %d",
			d, res.Aggregate, res.Waiting, res.Idle, res.MaxClockDistance)
	}
	r.notef("larger D absorbs the straggler VW's lag until the budget, not the bound, limits skew")
	return nil
}
