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
		fp, err := p.Materialize(n)
		if err != nil {
			t.Fatalf("%q: %v", canon, err)
		}
		stepCursors(t, canon, fp, n)
	})
}

// stepCursors steps each worker's cursor over minibatches 1..16 twice, as a
// crash replay does, and the cluster's over clocks 1..9 twice, and holds
// every report to once per run: a slowdown's iff a stepped minibatch has a
// scale above 1, a link's iff the link is degraded, a crash's, its charge's
// and its recovery's iff the crash falls within the steps, a stall's iff its
// clock has a positive delay — none of them in the second pass.
func stepCursors(t *testing.T, spec string, fp *fault.Plan, workers int) {
	const mbs, clocks = 16, 9
	for w := 0; w < workers; w++ {
		cur := fp.Cursor(w)
		var slows, links, crashes, charges, recovers int
		slowed := false
		for pass := 0; pass < 2; pass++ {
			for mb := 1; mb <= mbs; mb++ {
				quiet := cur.Quiet(mb)
				scale, slow := cur.Slow(mb)
				crash := cur.Crash(mb)
				if quiet != (slow == "" && crash == "") {
					t.Fatalf("%q: worker %d minibatch %d: Quiet %v, but Slow reports %q and Crash %q", spec, w, mb, quiet, slow, crash)
				}
				_, link := cur.Link()
				recovered := cur.Recover(mb)
				for s := 0; s < 3; s++ {
					sc, charge := cur.Task(mb, s)
					if sc != scale {
						t.Fatalf("%q: worker %d minibatch %d: Task scale %g, Slow %g", spec, w, mb, sc, scale)
					}
					if charge != 0 {
						charges++
					}
				}
				if pass == 1 && slow+crash+link+recovered != "" {
					t.Fatalf("%q: worker %d's replay of minibatch %d reported %q", spec, w, mb, slow+crash+link+recovered)
				}
				slowed = slowed || scale > 1
				for _, r := range []struct {
					report string
					n      *int
				}{{slow, &slows}, {link, &links}, {crash, &crashes}, {recovered, &recovers}} {
					if r.report != "" {
						*r.n++
					}
				}
			}
		}
		crash := fp.CrashFor(w)
		crashed := crash != nil && crash.AtMinibatch <= mbs
		for _, c := range []struct {
			what string
			n    int
			want bool
		}{
			{"slowdown", slows, slowed}, {"link", links, fp.LinkScale(w) > 1},
			{"crash", crashes, crashed}, {"crash charge", charges, crashed}, {"recovery", recovers, crashed},
		} {
			if (c.n == 1) != c.want || c.n > 1 {
				t.Fatalf("%q: worker %d's %s reported %d times, want it %v", spec, w, c.what, c.n, c.want)
			}
		}
	}
	cl := fp.Cursor(-1)
	for pass := 0; pass < 2; pass++ {
		for clock := 1; clock <= clocks; clock++ {
			delay, report := cl.Stall(clock)
			if want := pass == 0 && delay > 0; (report != "") != want {
				t.Fatalf("%q: pass %d stall at clock %d (delay %g) reported %q", spec, pass, clock, delay, report)
			}
		}
	}
}
