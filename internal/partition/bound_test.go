package partition_test

import (
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/profile"
)

// TestThroughputUpperBound reads pipeline.ThroughputBound off a partitioner's
// plan (an external test: pipeline imports partition). One V runs VGG-19 at
// its 131 img/s anchor, and a four-V pipeline adds three PCIe boundaries, each
// crossed twice, to the round trip: a lone minibatch runs some way below the
// anchor (113.6 img/s), and Nm = 4 in flight can at best quadruple that.
func TestThroughputUpperBound(t *testing.T) {
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{"VVVV"})
	if err != nil {
		t.Fatal(err)
	}
	pt := partition.New(profile.Default())
	bound := func(nm, minibatches, warmup int) float64 {
		plan, err := pt.Partition(c, model.VGG19(), a.VWs[0], nm, 32)
		if err != nil {
			t.Fatal(err)
		}
		return pipeline.ThroughputBound(plan, nil, minibatches, warmup)
	}
	lone := bound(1, 50, 12)
	if lone < 105 || lone > 131 {
		t.Errorf("lone-minibatch bound = %.1f img/s, want within (105, 131)", lone)
	}
	// A window of whole round trips: 80 completions, 4 in flight.
	if ub := bound(4, 100, 20); ub != 4*lone {
		t.Errorf("Nm=4 bound = %.1f img/s, want 4x the lone-minibatch %.1f", ub, lone)
	}
	// 62 completions span only 15 whole round trips of 4.
	if ub, want := bound(4, 80, 18), lone*62/15; ub < want*(1-1e-12) || ub > want*(1+1e-12) {
		t.Errorf("Nm=4 bound over the standard window = %.3f img/s, want %.3f", ub, want)
	}
}
