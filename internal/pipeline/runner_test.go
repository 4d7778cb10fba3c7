package pipeline

import (
	"slices"
	"testing"

	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
)

// TestKeptRunnerOwnsItsResults: a Runner keeps one pipeline — its executor and
// its completion buffer — for run after run, and what a run measures on it
// does not depend on the runs before: each of four different runs, taken in
// turn on one Runner and twice over, measures and completes what it does on a
// fresh one.
func TestKeptRunnerOwnsItsResults(t *testing.T) {
	a := handPlan(3, uniform(3, 1), uniform(3, 2), uniform(3, 0.25))
	b := handPlan(2, uniform(2, 3), uniform(2, 1), uniform(2, 0.5))
	runs := []Config{
		{Plan: a, Minibatches: 12, Warmup: 2},
		{Plan: b, Schedule: sched.OneF1B, Minibatches: 70, Warmup: 3},
		{Plan: a, Minibatches: 90, Warmup: 7},
		{Plan: b, Schedule: sched.GPipe, Minibatches: 10, Warmup: 4},
	}
	eng := sim.New()
	var r Runner
	var kept *Executor
	var buf *sim.Time
	for pass := range 2 {
		for i, cfg := range runs {
			got, err := r.Run(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunOn(sim.New(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want.Summary || !slices.Equal(r.pl.finished, want.Completions) {
				t.Errorf("pass %d run %d on a kept Runner\n got %+v\nwant %+v", pass, i, got, want.Summary)
			}
		}
		if pass == 0 {
			kept, buf = r.pl.x, &r.pl.finished[:1][0]
		}
	}
	if r.pl.x != kept || &r.pl.finished[:1][0] != buf {
		t.Error("the Runner's pipeline built a second executor or completion buffer")
	}
}
