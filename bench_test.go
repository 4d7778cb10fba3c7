package hetpipe

// One benchmark per paper table and figure: each regenerates the experiment
// end to end on the simulated cluster, so `go test -bench=.` reproduces the
// whole evaluation and times it. The convergence studies (Figures 5 and 6)
// run real numeric SGD and take seconds per iteration; the throughput
// studies are discrete-event simulations and take milliseconds.

import (
	"testing"

	"hetpipe/internal/experiment"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Run(b.Context(), name)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Lines) == 0 {
			b.Fatalf("%s produced no rows", name)
		}
	}
}

// BenchmarkTable1 regenerates the GPU catalog (Table 1).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable3 regenerates the allocation policy table (Table 3).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFigure1 regenerates the pipeline schedule chart (Figure 1).
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "figure1") }

// BenchmarkFigure3 regenerates the single-virtual-worker Nm sweep
// (Figure 3): 7 configurations x 2 models x Nm in 1..7.
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "figure3") }

// BenchmarkFigure4 regenerates the allocation-policy comparison at D=0
// (Figure 4), including the Horovod baseline and the WSP multi-VW
// simulation for NP/ED/ED-local/HD.
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "figure4") }

// BenchmarkTable4 regenerates the whimpy-GPU scaling study (Table 4).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFigure5 regenerates the ResNet-152 convergence comparison
// (Figure 5): real numeric SGD co-simulated with cluster timing.
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "figure5") }

// BenchmarkFigure6 regenerates the VGG-19 convergence comparison across
// D = 0/4/32 (Figure 6).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "figure6") }

// BenchmarkSyncOverhead regenerates the Section 8.4 waiting/idle analysis.
func BenchmarkSyncOverhead(b *testing.B) { benchExperiment(b, "syncoverhead") }

// BenchmarkTheorem1 measures regret under the WSP schedule against the
// Section 6 bound.
func BenchmarkTheorem1(b *testing.B) { benchExperiment(b, "theorem1") }

// BenchmarkTraffic regenerates the Section 8.3 cross-node traffic
// accounting.
func BenchmarkTraffic(b *testing.B) { benchExperiment(b, "traffic") }

// BenchmarkAblationWavePush quantifies wave-aggregated pushes.
func BenchmarkAblationWavePush(b *testing.B) { benchExperiment(b, "ablation-wavepush") }

// BenchmarkAblationMemAware contrasts memory-aware and uniform partitioning.
func BenchmarkAblationMemAware(b *testing.B) { benchExperiment(b, "ablation-memaware") }

// BenchmarkAblationNmSweep sweeps the forced Nm under ED-local.
func BenchmarkAblationNmSweep(b *testing.B) { benchExperiment(b, "ablation-nmsweep") }

// BenchmarkAblationDSweep sweeps the clock-distance bound D under NP.
func BenchmarkAblationDSweep(b *testing.B) { benchExperiment(b, "ablation-dsweep") }
