package experiment

import (
	"context"
	"fmt"
	"strings"

	"hetpipe/internal/core"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
)

const batchSize = 32

// allocated resolves sp's System and allocation through the front door, for
// an experiment that reads the System itself (Horovod, SoloVW) or deploys one
// allocation more than once.
func allocated(sp core.Spec) (*core.System, *hw.Allocation, error) {
	sys, err := sp.System()
	if err != nil {
		return nil, nil, err
	}
	alloc, err := sp.Allocate(sys.Cluster)
	return sys, alloc, err
}

func init() {
	register("table1", "Table 1", "Heterogeneous GPUs (hardware catalog)", table1)
	register("table3", "Table 3", "Resource allocation per policy (Table 3)", table3)
	register("figure1", "Figure 1", "Pipelined execution of minibatches within a virtual worker (Figure 1)", figure1)
	register("figure3", "Figure 3", "Single virtual worker: throughput and max GPU utilization vs Nm (Figure 3)", figure3)
	register("figure4", "Figure 4", "Throughput of allocation policies vs Horovod, D=0 (Figure 4)", figure4)
	register("table4", "Table 4", "Adding whimpy GPUs (Table 4)", table4)
}

// table1 prints the GPU catalog.
func table1(_ context.Context, r *Report) error {
	r.addf("%-18s %-7s %9s %11s %11s %12s", "GPU", "Arch", "CUDACore", "Boost(MHz)", "Memory(GB)", "MemBW(GB/s)")
	for _, g := range hw.Catalog() {
		r.addf("%-18s %-7s %9d %11d %11d %12.0f",
			g.Name, g.Arch, g.CUDACores, g.BoostMHz, g.MemoryBytes>>30, g.MemBandwidth/1e9)
	}
	return nil
}

// table3 prints the resource allocation of the three policies.
func table3(_ context.Context, r *Report) error {
	c := hw.Paper()
	r.addf("%-5s %-16s %-18s %-18s", "", "NodePartition", "EqualDistribution", "HybridDistribution")
	allocs := map[hw.Policy]*hw.Allocation{}
	for _, p := range hw.Policies() {
		a, err := hw.Allocate(c, p)
		if err != nil {
			return err
		}
		allocs[p] = a
	}
	for i := 0; i < 4; i++ {
		r.addf("VW%d   %-16s %-18s %-18s", i+1,
			allocs[hw.NodePartition].VWs[i].TypeString(),
			allocs[hw.EqualDistribution].VWs[i].TypeString(),
			allocs[hw.HybridDistribution].VWs[i].TypeString())
	}
	return nil
}

// figure1 renders the pipelined execution schedule of one virtual worker
// (VGG-19 on VVVV, Nm=4) as an ASCII Gantt chart.
func figure1(_ context.Context, r *Report) error {
	dep, err := core.Spec{Model: "vgg19", Specs: "VVVV", Nm: 4}.Resolve()
	if err != nil {
		return err
	}
	tr, err := dep.SoloTrace(0, 12)
	if err != nil {
		return err
	}
	for line := range strings.Lines(tr.Gantt(110)) {
		r.addf("%s", strings.TrimSuffix(line, "\n"))
	}
	r.notef("numbers are forward passes, bracketed numbers backward passes; dots are idle time")
	return nil
}

// figure3 sweeps Nm for the seven single-virtual-worker configurations and
// reports absolute and normalized throughput plus the maximum per-GPU
// utilization.
func figure3(ctx context.Context, r *Report) error {
	paperNm1 := map[string]map[string]float64{
		"ResNet-152": {"VVVV": 96, "RRRR": 87, "GGGG": 58, "QQQQ": 43, "VRGQ": 42, "VVQQ": 53, "RRGG": 58},
		"VGG-19":     {"VVVV": 119, "RRRR": 107, "GGGG": 62, "QQQQ": 51, "VRGQ": 60, "VVQQ": 116, "RRGG": 68},
	}
	for _, m := range model.PaperModels() {
		r.addf("%s:", m.Name)
		for _, spec := range hw.SingleVWConfigs() {
			s, alloc, err := allocated(core.Spec{Model: m.Name, Specs: spec})
			if err != nil {
				return err
			}
			var base float64
			row := fmt.Sprintf("  %-5s paperNm1=%-4.0f", spec, paperNm1[m.Name][spec])
			for nm := 1; nm <= 7; nm++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				_, sum, err := s.SoloVW(alloc.VWs[0], nm, 50+10*nm, 10+2*nm)
				if err != nil {
					row += fmt.Sprintf(" nm%d=--", nm)
					continue
				}
				if nm == 1 {
					base = sum.Throughput
					row += fmt.Sprintf(" nm1=%.0f(u%.2f)", sum.Throughput, sum.MaxGPUUtil)
					continue
				}
				row += fmt.Sprintf(" nm%d=%.2fx(u%.2f)", nm, sum.Throughput/base, sum.MaxGPUUtil)
			}
			r.addf("%s", row)
		}
	}
	r.notef("normalized throughput is relative to Nm=1 for the same configuration, as in the paper")
	r.notef("'--' marks memory-infeasible Nm values (Maxm exceeded)")
	return nil
}

// figure4Deployment deploys sp on s and runs the default co-simulation.
func figure4Deployment(ctx context.Context, s *core.System, sp core.Spec) (*core.Deployment, *core.MultiResult, error) {
	alloc, err := sp.Allocate(s.Cluster)
	if err != nil {
		return nil, nil, err
	}
	dep, err := sp.Deploy(s, alloc)
	if err != nil {
		return nil, nil, err
	}
	res, err := dep.Simulate(ctx, core.SimOptions{})
	if err != nil {
		return nil, nil, err
	}
	return dep, res, nil
}

// figure4 compares the three allocation policies (plus ED-local) against
// Horovod at D=0.
func figure4(ctx context.Context, r *Report) error {
	paper := map[string]map[string]float64{
		"ResNet-152": {"Horovod": 415, "NP": 380, "ED": 570, "ED-local": 580, "HD": 570},
		"VGG-19":     {"Horovod": 339, "NP": 260, "ED": 280, "ED-local": 610, "HD": 310},
	}
	for _, m := range model.PaperModels() {
		s, err := core.Spec{Model: m.Name}.System()
		if err != nil {
			return err
		}
		hr, err := s.Horovod(nil)
		if err != nil {
			return err
		}
		r.addf("%s:", m.Name)
		r.addf("  %-9s %8.0f img/s  (paper ~%3.0f; %d workers, %d excluded)",
			"Horovod", hr.Throughput, paper[m.Name]["Horovod"], len(hr.Workers), len(hr.Excluded))
		for _, c := range []struct {
			label string
			sp    core.Spec
		}{
			{"NP", core.Spec{Policy: "NP"}},
			{"ED", core.Spec{Policy: "ED"}},
			{"ED-local", core.Spec{Policy: "ED", Local: true}},
			{"HD", core.Spec{Policy: "HD"}},
		} {
			dep, res, err := figure4Deployment(ctx, s, c.sp)
			if err != nil {
				r.addf("  %-9s failed: %v", c.label, err)
				continue
			}
			r.addf("  %-9s %8.0f img/s  (paper ~%3.0f; Nm=%d, waiting %.1fs, idle %.1fs)",
				c.label, res.Aggregate, paper[m.Name][c.label], dep.Nm, res.Waiting, res.Idle)
		}
	}
	r.notef("paper reference values are read off Figure 4's bars (approximate)")
	return nil
}

// table4 measures throughput as whimpy GPUs are added: Horovod vs HetPipe
// with ED-local-style placement over the Table 4 GPU sets.
func table4(ctx context.Context, r *Report) error {
	paper := map[string]map[string]float64{
		"VGG-19":     {"4 GPUs 4[V]": 300, "8 GPUs 4[VR]": 530, "12 GPUs 4[VRQ]": 572, "16 GPUs 4[VRQG]": 606},
		"ResNet-152": {"4 GPUs 4[V]": 256, "8 GPUs 4[VR]": 516, "12 GPUs 4[VRQ]": 538, "16 GPUs 4[VRQG]": 580},
	}
	paperHorovod := map[string]map[string]float64{
		"VGG-19":     {"4 GPUs 4[V]": 164, "8 GPUs 4[VR]": 205, "12 GPUs 4[VRQ]": 265, "16 GPUs 4[VRQG]": 339},
		"ResNet-152": {"4 GPUs 4[V]": 233, "8 GPUs 4[VR]": 353, "12 GPUs 4[VRQ]": 415},
	}
	for _, m := range model.PaperModels() {
		r.addf("%s:", m.Name)
		for _, set := range hw.Table4Sets() {
			// HetPipe with local-style placement when stage/node alignment
			// holds (it does for all Table 4 sets), default otherwise.
			sp := core.Spec{Model: m.Name, Specs: strings.Join(set.Specs, ","), Local: true}
			s, alloc, err := allocated(sp)
			if err != nil {
				return err
			}
			// Horovod on exactly the set's GPUs.
			var gpus []*hw.GPU
			for _, vw := range alloc.VWs {
				gpus = append(gpus, vw.GPUs...)
			}
			horovod := "X"
			if hr, err := s.Horovod(gpus); err == nil && len(hr.Excluded) == 0 {
				horovod = fmt.Sprintf("%.0f", hr.Throughput)
			}
			dep, err := sp.Deploy(s, alloc)
			if err != nil {
				sp.Local = false
				dep, err = sp.Deploy(s, alloc)
				if err != nil {
					r.addf("  %-16s HetPipe failed: %v", set.Name, err)
					continue
				}
			}
			res, err := dep.Simulate(ctx, core.SimOptions{})
			if err != nil {
				r.addf("  %-16s simulation failed: %v", set.Name, err)
				continue
			}
			concurrent := dep.Nm * len(dep.VWs)
			r.addf("  %-16s Horovod %6s (paper %4.0f)   HetPipe %6.0f (%d) (paper %4.0f (%s))",
				set.Name, horovod, paperHorovod[m.Name][set.Name],
				res.Aggregate, concurrent, paper[m.Name][set.Name], paperConcurrent(m.Name, set.Name))
		}
	}
	r.notef("(n) is the total number of concurrent minibatches across virtual workers; X marks infeasible Horovod")
	return nil
}

func paperConcurrent(modelName, setName string) string {
	table := map[string]map[string]string{
		"VGG-19":     {"4 GPUs 4[V]": "5", "8 GPUs 4[VR]": "16", "12 GPUs 4[VRQ]": "20", "16 GPUs 4[VRQG]": "20"},
		"ResNet-152": {"4 GPUs 4[V]": "5", "8 GPUs 4[VR]": "20", "12 GPUs 4[VRQ]": "24", "16 GPUs 4[VRQG]": "28"},
	}
	if v, ok := table[modelName][setName]; ok {
		return v
	}
	return "?"
}
