package pipeline

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
	"hetpipe/internal/trace"
)

// TestForkedWindowsEqualTheirOwnRuns is the wall of "one run, every window":
// random skewed chains cut by the partitioner for random workers of the
// doubled paper cluster (as the round-trip oracle draws them), every
// slot-injection schedule, interleaved also at V = 2, Nm from 1 to 10 so the
// in-flight cap sits below, at and above the pipeline's depth, and 2-5 random
// ascending windows — some shorter than the cap, so the fork happens inside
// Start, and some one minibatch apart, so a window forks again in the first
// completion after its resume. Every forked Result must be DeepEqual to
// RunOn's for that window alone: throughput, elapsed, utilizations, every
// completion time. One Fork and one engine serve every run, as in core.
//
// Mutations tried against it. Caught: saving at a later refusal of the gate
// than the first (the state is then part-way into the short window's drain);
// not restoring the engine, the devices, the rings' heads and counts, the
// pipeline's counters, or the completions' length. Not caught, because today
// they change nothing: dropping resume's re-pick on GPU 0 (Executor.ready ends
// in the same re-pick, so the injection loop resume re-runs has just made it)
// and not restoring the rings' slab (a drain pushes at most cap entries behind
// the saved ones and never wraps onto them). Both stay, so that resume puts
// back everything a handler may have touched and finishes the handler it
// interrupted by its own text, not by two facts about other code.
func TestForkedWindowsEqualTheirOwnRuns(t *testing.T) {
	c, err := hw.ClusterByName("paper-x2")
	if err != nil {
		t.Fatal(err)
	}
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	rng := rand.New(rand.NewSource(22))
	perf := profile.Default()
	eng, solo := sim.New(), sim.New()
	var fk Fork
	gpus := c.GPUs()
	windows, inStart, above, below := 0, 0, 0, 0
	for round := 0; round < rounds; round++ {
		k := 1 + rng.Intn(8)
		vw := &hw.VirtualWorker{}
		for _, i := range rng.Perm(len(gpus))[:k] {
			vw.GPUs = append(vw.GPUs, gpus[i])
		}
		w := make([]float64, 2*k+rng.Intn(24))
		for i := range w {
			w[i] = math.Exp(rng.NormFloat64()) * 1e9
		}
		m := model.Skewed("fork", w, 1<<10, int64(1)<<(8+rng.Intn(11)))
		batch := 1 + rng.Intn(64)
		for _, name := range sched.Names() {
			s, err := sched.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if s.Inject() != sched.InjectSlot {
				continue
			}
			for v := 1; v <= 2; v++ {
				if v > 1 && !s.SupportsInterleave() {
					continue
				}
				pt := partition.NewInterleaved(perf, s, v)
				for nm := 1; nm <= 10; nm++ {
					plan, err := pt.Partition(c, m, vw, nm, batch)
					if err != nil {
						t.Fatalf("round %d %s V=%d Nm=%d on %s: %v", round, name, v, nm, vw.TypeString(), err)
					}
					cap := s.InFlightCap(plan.VirtualStages(), nm)
					if nm > cap {
						above++
					} else if nm < plan.VirtualStages() {
						below++
					}
					ws := make([]Window, 2+rng.Intn(4))
					total := 0
					for i := range ws {
						total += 1 + rng.Intn(1+rng.Intn(40))
						ws[i] = Window{total, rng.Intn(total)}
					}
					if ws[0].Minibatches < cap {
						inStart++
					}
					got := make([]Summary, len(ws))
					if err := RunWindows(eng, Config{Plan: plan, Schedule: s}, ws, &fk, got); err != nil {
						t.Fatalf("round %d %s V=%d Nm=%d windows %v: %v", round, name, v, nm, ws, err)
					}
					for i, win := range ws {
						res, err := RunOn(solo, Config{Plan: plan, Schedule: s, Minibatches: win.Minibatches, Warmup: win.Warmup})
						if err != nil {
							t.Fatal(err)
						}
						if got[i] != res.Summary {
							t.Fatalf("round %d %s %s V=%d Nm=%d (cap %d, depth %d) windows %v: window %d forked differs from its own run\n got %+v\nwant %+v",
								round, vw.TypeString(), name, v, nm, cap, plan.VirtualStages(), ws, i, got[i], res.Summary)
						}
						windows++
					}
				}
			}
		}
	}
	if inStart == 0 || above == 0 || below == 0 {
		t.Errorf("degenerate draw: %d runs forked inside Start, %d had Nm above the cap, %d below the depth", inStart, above, below)
	}
	t.Logf("%d forked windows equal their own runs; %d runs forked inside Start, %d with Nm above the cap", windows, inStart, above)
}

// TestRunWindowsRestrictions: what one window may use — a gate, a completion
// hook, a TaskTime hook, a trace, wave injection — is a checked error for
// several, and malformed window lists are refused before anything runs.
func TestRunWindowsRestrictions(t *testing.T) {
	plan := handPlan(3, uniform(3, 1), uniform(3, 2), uniform(3, 0.25))
	two := []Window{{4, 1}, {9, 2}}
	var fk Fork
	for _, tc := range []struct {
		name    string
		cfg     Config
		windows []Window
		fk      *Fork
		want    string // "" means the run must succeed
	}{
		{"two windows", Config{Plan: plan}, two, &fk, ""},
		{"one window with everything", Config{Plan: plan, Schedule: sched.GPipe, Trace: trace.New(3),
			InjectGate: func(int) bool { return true }, OnComplete: func(int, sim.Time) {},
			TaskTime: func(_, _ int, base float64) float64 { return base }}, two[:1], nil, ""},
		{"no window", Config{Plan: plan}, nil, &fk, "0 windows"},
		{"no fork", Config{Plan: plan}, two, nil, "need a Fork"},
		{"wave injection", Config{Plan: plan, Schedule: sched.GPipe}, two, &fk, "injects by wave"},
		{"gate", Config{Plan: plan, InjectGate: func(int) bool { return true }}, two, &fk, "must be nil"},
		{"completion hook", Config{Plan: plan, OnComplete: func(int, sim.Time) {}}, two, &fk, "must be nil"},
		{"task time", Config{Plan: plan, TaskTime: func(_, _ int, base float64) float64 { return base }}, two, &fk, "must be nil"},
		{"trace", Config{Plan: plan, Trace: trace.New(3)}, two, &fk, "must be nil"},
		{"descending", Config{Plan: plan}, []Window{{9, 2}, {4, 1}}, &fk, "must ascend"},
		{"repeated", Config{Plan: plan}, []Window{{4, 1}, {4, 0}}, &fk, "must ascend"},
		{"warmup too long", Config{Plan: plan}, []Window{{4, 4}, {9, 2}}, &fk, "warmup 4 >= total 4"},
		{"empty window", Config{Plan: plan}, []Window{{0, 0}, {9, 2}}, &fk, "at least one minibatch"},
		{"too few results", Config{Plan: plan}, append(two, Window{12, 3}), &fk, "3 windows to run into 2 results"},
	} {
		res := make([]Summary, min(len(tc.windows), 2))
		err := RunWindows(sim.New(), tc.cfg, tc.windows, tc.fk, res)
		switch {
		case tc.want == "" && (err != nil || slices.Contains(res, Summary{})):
			t.Errorf("%s: results %v, error %v", tc.name, res, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestForkedRunsOwnTheirResults: a Fork keeps one pipeline — its executor and
// its completion buffer — for run after run, and what a run measures on it
// does not depend on the runs before: each of two different runs, taken in
// turn on one Fork and twice over, measures what it does on a fresh Fork.
func TestForkedRunsOwnTheirResults(t *testing.T) {
	runs := []struct {
		cfg     Config
		windows []Window
	}{
		{Config{Plan: handPlan(3, uniform(3, 1), uniform(3, 2), uniform(3, 0.25))}, []Window{{6, 1}, {12, 2}, {90, 7}}},
		{Config{Plan: handPlan(2, uniform(2, 3), uniform(2, 1), uniform(2, 0.5)), Schedule: sched.OneF1B}, []Window{{5, 0}, {10, 4}, {70, 3}}},
	}
	eng := sim.New()
	var fk Fork
	var kept *Executor
	var buf *sim.Time
	for pass := range 2 {
		for i, r := range runs {
			got := make([]Summary, len(r.windows))
			if err := RunWindows(eng, r.cfg, r.windows, &fk, got); err != nil {
				t.Fatal(err)
			}
			want := make([]Summary, len(r.windows))
			if err := RunWindows(sim.New(), r.cfg, r.windows, new(Fork), want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d run %d on a kept Fork\n got %+v\nwant %+v", pass, i, got, want)
			}
		}
		if pass == 0 {
			kept, buf = fk.pl.x, &fk.pl.finished[:1][0]
		}
	}
	if fk.pl.x != kept || &fk.pl.finished[:1][0] != buf {
		t.Error("the Fork's pipeline built a second executor or completion buffer")
	}
}
