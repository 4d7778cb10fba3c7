package cluster

import (
	"context"
	"math"
	"testing"

	"hetpipe/internal/train"
)

// conformanceGrid is the configurations the differential suites run: worker
// counts, staleness settings, shard counts (one that the chunks do not divide
// evenly: the row still named for the simulated timing it once also set), one
// real-TCP configuration and the non-convex task.
func conformanceGrid(t *testing.T) []conformanceCase {
	t.Helper()
	lt, err := train.DefaultTask(13)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := train.DefaultMLPTask(31)
	if err != nil {
		t.Fatal(err)
	}
	return []conformanceCase{
		{"N2_Nm1_D0", Config{
			Task: lt, Workers: 2, SLocal: 0, D: 0, LR: 0.3,
			MaxMinibatches: 24, Servers: 2,
		}},
		{"N3_Nm3_D1_heterogeneous_timing", Config{
			Task: lt, Workers: 3, SLocal: 2, D: 1, LR: 0.2,
			MaxMinibatches: 36, Servers: 2, Chunks: 7,
		}},
		{"N4_Nm4_D4_many_shards", Config{
			Task: lt, Workers: 4, SLocal: 3, D: 4, LR: 0.2,
			MaxMinibatches: 48, Servers: 3, Chunks: 16,
		}},
		{"N3_Nm2_D0_tcp", Config{
			Task: lt, Workers: 3, SLocal: 1, D: 0, LR: 0.25,
			MaxMinibatches: 20, Servers: 2, TCP: true,
		}},
		{"N2_Nm2_D1_mlp", Config{
			Task: mlp, Workers: 2, SLocal: 1, D: 1, LR: 0.15,
			MaxMinibatches: 24, Servers: 2,
		}},
	}
}

type conformanceCase struct {
	name string
	cfg  Config
}

// TestSimLiveConformance is the differential acceptance suite: the same
// (task, N, Nm, D) configuration runs through the discrete-event simulator
// and the live sharded-PS runtime, and the two must agree on every protocol
// count, respect the D-bound, and land on the same weights bit for bit —
// across worker counts, staleness settings, shard counts, and one real-TCP
// configuration.
func TestSimLiveConformance(t *testing.T) {
	for _, c := range conformanceGrid(t) {
		t.Run(c.name, func(t *testing.T) {
			report, err := RunConformance(context.Background(), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := report.Err(); err != nil {
				t.Fatalf("%v\n%s", err, report)
			}
		})
	}
}

// TestNonFiniteWeightsNeverConform: a finite but absurd step size overflows
// both backends to the same non-finite weights, which no per-coordinate
// difference can show (NaN compares false with everything).
func TestNonFiniteWeightsNeverConform(t *testing.T) {
	report, err := RunConformance(context.Background(), Config{
		Task: testTask(t), Workers: 2, SLocal: 1, D: 0, LR: math.MaxFloat64, MaxMinibatches: 12, Servers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.NonFinite == 0 {
		t.Fatalf("the largest finite step left every weight finite\n%s", report)
	}
	if report.Err() == nil {
		t.Errorf("non-finite weights reported as conforming:\n%s", report)
	}
}
