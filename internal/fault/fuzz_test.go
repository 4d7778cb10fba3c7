package fault_test

import (
	"context"
	"math"
	"testing"
	"time"

	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/sim"
)

// FuzzParseFaults holds the fault grammar to what a spec language owes: no
// input panics the parser; an accepted spec's canonical form is a fixed point
// of parse-and-print; and an accepted plan is runnable — with its worker
// indices folded onto the mini cluster's four ED workers it co-simulates WSP
// to completion, under a deadline, with finite, non-negative throughput and
// waiting times (so no accepted number can step the clock backwards, hang a
// gate or poison a sum).
func FuzzParseFaults(f *testing.F) {
	for _, spec := range []string{
		"slow:w0:x2", "slow:w1:x1.5:mb8-24", "crash:w2:mb40", "crash:w2:mb40:down2.5",
		"stall:s0:c3:0.05", "link:w3:x4", "rand:0.5:seed7", "slow:w0:x2,crash:w1:mb40",
		"slow:w0:xNaN", "slow:w0:xInf", "stall:s0:c1:NaN", "crash:w0:mb5:downInf", "link:w0:xNaN", "rand:NaN",
		"slow:w0:x1e9,link:w0:x1e9,stall:s9:c2:1e9,crash:w0:mb3:down1e9,rand:1:max1e9",
		"slow:w0:x1e5,slow:w4:x1e5", "crash:w1:mb2,crash:w5:mb3", "slow:w2:x3:mb5-", "rand:1:seed-9:max1.5",
		"", ",", "slow", "SLOW:w0:x0x1p1", " stall:s0:c1:+1e-300 ",
	} {
		f.Add(spec)
	}
	mini, err := hw.ClusterByName("mini")
	if err != nil {
		f.Fatal(err)
	}
	sys, err := core.NewSystem(mini, model.VGG19(), profile.Default(), 32)
	if err != nil {
		f.Fatal(err)
	}
	alloc, err := hw.Allocate(mini, hw.EqualDistribution)
	if err != nil {
		f.Fatal(err)
	}
	dep, err := sys.Deploy(alloc, 2, 1, core.PlacementDefault)
	if err != nil {
		f.Fatal(err)
	}
	n := len(dep.VWs)
	eng := sim.New()
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := fault.Parse(spec)
		if err != nil {
			return
		}
		canon := p.String()
		again, err := fault.Parse(canon)
		if err != nil {
			t.Fatalf("%q parsed, its canonical form %q does not: %v", spec, canon, err)
		}
		if again.String() != canon {
			t.Fatalf("%q: canonical form %q reprints as %q", spec, canon, again.String())
		}
		for i := range p.Slowdowns {
			p.Slowdowns[i].Worker %= n
		}
		for i := range p.Crashes {
			p.Crashes[i].Worker %= n
		}
		for i := range p.Links {
			p.Links[i].Worker %= n
		}
		if p.Validate() != nil {
			// Folding put two crashes, or factors that compound past the
			// bound, on one worker: not the plan that was accepted.
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		res, err := dep.SimulateWSPFaultsOn(ctx, eng, 16, 4*dep.Nm, nil, p, 2)
		if err != nil {
			t.Fatalf("%q: %v", canon, err)
		}
		for _, v := range []float64{res.Aggregate, res.Waiting, res.Idle, res.Elapsed} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%q: %g samples/s aggregate, waiting %gs, idle %gs, elapsed %gs", canon, res.Aggregate, res.Waiting, res.Idle, res.Elapsed)
			}
		}
	})
}
