package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
)

// identity is the TaskTime hook that changes no duration: a run with it
// simulates every minibatch, so it is the fully simulated twin of the same
// run without it.
func identity(_, _ int, base float64) float64 { return base }

// ffCase is one plan under one schedule.
type ffCase struct {
	id   string
	plan *partition.Plan
	s    sched.Schedule
}

// ffCases draws TestThroughputNeverExceedsRoundTripBound's random plans —
// skewed chains cut for random workers of the doubled paper cluster — and adds
// BENCH_pipeline.json's shape (ResNet-152 on VRGQ at Nm 4), under all six
// schedules and interleaved also at V = 2.
func ffCases(t *testing.T, rng *rand.Rand, rounds int) []ffCase {
	t.Helper()
	c, err := hw.ClusterByName("paper-x2")
	if err != nil {
		t.Fatal(err)
	}
	perf := profile.Default()
	gpus := c.GPUs()
	type draw struct {
		m     *model.Model
		vw    *hw.VirtualWorker
		batch int
		nm    func() int
	}
	var draws []draw
	bench, err := hw.AllocateByTypes(hw.Paper(), []string{"VRGQ"})
	if err != nil {
		t.Fatal(err)
	}
	draws = append(draws, draw{model.ResNet152(), bench.VWs[0], 32, func() int { return 4 }})
	for range rounds {
		k := 1 + rng.Intn(8)
		vw := &hw.VirtualWorker{}
		for _, i := range rng.Perm(len(gpus))[:k] {
			vw.GPUs = append(vw.GPUs, gpus[i])
		}
		w := make([]float64, 2*k+rng.Intn(24))
		for i := range w {
			w[i] = math.Exp(rng.NormFloat64()) * 1e9
		}
		draws = append(draws, draw{model.Skewed("ff", w, 1<<10, int64(1)<<(8+rng.Intn(11))), vw, 1 + rng.Intn(64),
			func() int { return 1 + rng.Intn(10) }})
	}
	var out []ffCase
	for di, d := range draws {
		cl := c
		if di == 0 {
			cl = hw.Paper()
		}
		for _, name := range sched.Names() {
			s, err := sched.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for v := 1; v <= 2; v++ {
				if v > 1 && !s.SupportsInterleave() {
					continue
				}
				nm := d.nm()
				plan, err := partition.NewInterleaved(perf, s, v).Partition(cl, d.m, d.vw, nm, d.batch)
				if err != nil {
					t.Fatalf("draw %d %s V=%d Nm=%d on %s: %v", di, name, v, nm, d.vw.TypeString(), err)
				}
				out = append(out, ffCase{fmt.Sprintf("draw %d %s %s V=%d Nm=%d", di, d.vw.TypeString(), name, v, nm), plan, s})
			}
		}
	}
	return out
}

// TestFastForwardEqualsFullRun is the wall of fast-forwarding: a hook-free
// run that jumps whole periods must equal its identity-hook twin, which
// simulates every minibatch, bit for bit — the Summary of each run on one kept
// Runner, RunOn's whole Result (throughput, elapsed, every utilization and
// completion time), the end state the Result does not show (every device's
// busy time and jobs served, the clock), and the whole state right after the
// first jump (sameStateAfterJump). Each case takes one to three runs of 1 to
// 150 minibatches. And the jump must fire on at least 90 % of the runs of 80
// minibatches or more, or the wall proves nothing.
//
// Mutations tried against it, each caught: leaving unshifted the clock, the
// pending events' times, a transfer's minibatch or start time, a device's
// service start, job in service, queued jobs, busy total or jobs served, a
// ring's minibatches, the injected or completed counters, the open wave's
// first minibatch or the skipped completion times; dropping the horizon check.
// The jump's margin is not among them: it keeps a period and the in-flight cap
// to simulate so that the end of the window is always simulated, but a jump
// that stops anywhere short of the window's end would be exact too.
func TestFastForwardEqualsFullRun(t *testing.T) {
	rounds := 80
	if testing.Short() {
		rounds = 16
	}
	rng := rand.New(rand.NewSource(29))
	engFast, engTwin := sim.New(), sim.New()
	var fast, twin Runner
	long, jumped, runs := 0, 0, 0
	for _, tc := range ffCases(t, rng, rounds) {
		var cfg Config
		for range 1 + rng.Intn(3) {
			n := 1 + rng.Intn(150)
			cfg = Config{Plan: tc.plan, Schedule: tc.s, Minibatches: n, Warmup: rng.Intn(n)}
			got, err := fast.Run(engFast, cfg)
			if err != nil {
				t.Fatalf("%s window (%d, %d): %v", tc.id, n, cfg.Warmup, err)
			}
			full := cfg
			full.TaskTime = identity
			want, err := twin.Run(engTwin, full)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s window (%d, %d): fast-forwarded %+v, simulated %+v", tc.id, n, cfg.Warmup, got, want)
			}
			if twin.Skipped() != 0 {
				t.Fatalf("%s: a run with a TaskTime hook jumped %d minibatches", tc.id, twin.Skipped())
			}
			if !reflect.DeepEqual(fast.pl.finished, twin.pl.finished) || engFast.Now() != engTwin.Now() {
				t.Fatalf("%s window (%d, %d): completions or clock differ from the full run", tc.id, n, cfg.Warmup)
			}
			for g, dev := range fast.pl.x.Devices() {
				tw := twin.pl.x.Devices()[g]
				if dev.BusyTime() != tw.BusyTime() || dev.Served() != tw.Served() {
					t.Fatalf("%s window (%d, %d): GPU %d busy %v for %d jobs, full run %v for %d", tc.id, n, cfg.Warmup, g,
						dev.BusyTime(), dev.Served(), tw.BusyTime(), tw.Served())
				}
			}
			runs++
			if n >= 80 {
				long++
				if engFast.Fired() < engTwin.Fired() {
					jumped++
				}
			}
		}
		// RunOn over the last window, whole Result.
		res, err := RunOn(engFast, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full := cfg
		full.TaskTime = identity
		want, err := RunOn(engTwin, full)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s window (%d, %d): RunOn fast-forwarded\n%+v\nsimulated\n%+v", tc.id, cfg.Minibatches, cfg.Warmup, res, want)
		}
		sameStateAfterJump(t, tc, cfg)
	}
	if long == 0 || jumped*10 < long*9 {
		t.Errorf("the jump fired on %d of %d runs of 80 minibatches or more, want 90 %%", jumped, long)
	}
	t.Logf("%d runs equal their full simulations; the jump fired on %d of %d runs of 80+ minibatches", runs, jumped, long)
}

// sameStateAfterJump steps the hook-free run cfg event by event up to its
// first jump, steps its identity-hook twin to the same completion, and fails
// unless the two are in the same state there: the same clock and counters,
// the same pending events, device queues and rings with the same minibatch
// numbers, the same busy totals, jobs served and completion times. Much of
// that (minibatch numbers, a transfer's start) no hook-free run ever reads,
// so only this comparison shows it shifted right.
func sameStateAfterJump(t *testing.T, tc ffCase, cfg Config) {
	t.Helper()
	start := func(r *Runner, cfg Config) *sim.Engine {
		eng := sim.New()
		if err := r.start(eng, cfg); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	var fast, twin Runner
	eng := start(&fast, cfg)
	for fast.Skipped() == 0 && eng.Step() {
	}
	if fast.Skipped() == 0 {
		return
	}
	full := cfg
	full.TaskTime = identity
	engTwin := start(&twin, full)
	for twin.pl.completed < fast.pl.completed && engTwin.Step() {
	}
	type state struct {
		now                 sim.Time
		completed, injected int
		words               []uint64
		finished            []sim.Time
		busy                []sim.Duration
		served              []uint64
	}
	of := func(r *Runner, eng *sim.Engine) state {
		s := state{now: eng.Now(), completed: r.pl.completed, injected: r.pl.injected,
			words:    eng.AppendState(r.state(nil), r.pl.x.stamped(), int32(r.pl.completed)),
			finished: r.pl.finished}
		for _, dev := range r.pl.x.Devices() {
			s.busy, s.served = append(s.busy, dev.BusyTime()), append(s.served, dev.Served())
		}
		return s
	}
	if got, want := of(&fast, eng), of(&twin, engTwin); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s window (%d, %d): after jumping %d minibatches the state is\n%+v\nsimulated, it is\n%+v",
			tc.id, cfg.Minibatches, cfg.Warmup, fast.Skipped(), got, want)
	}
}

// TestFastForwardStopsAtTheHorizon: a run whose jump would carry its times
// to sim.Horizon or past never jumps — beyond it sums round, and a shifted
// state no longer evolves as the simulated one does — and still equals its
// full simulation. A run that ends just short of it does jump.
func TestFastForwardStopsAtTheHorizon(t *testing.T) {
	for _, tc := range []struct {
		stage float64 // every forward and backward, seconds
		jumps bool
	}{
		{stage: 60, jumps: false}, // 150 minibatches of 240 s each: 36,000 s
		{stage: 0.2, jumps: true}, // 120 s in all
	} {
		plan := handPlan(1, uniform(2, tc.stage), uniform(2, tc.stage), uniform(2, 0))
		var fast, twin Runner
		cfg := Config{Plan: plan, Minibatches: 150, Warmup: 10}
		got, err := fast.Run(sim.New(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.TaskTime = identity
		want, err := twin.Run(sim.New(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || !reflect.DeepEqual(fast.pl.finished, twin.pl.finished) {
			t.Errorf("%g s stages: fast-forwarded %+v, simulated %+v", tc.stage, got, want)
		}
		if (fast.Skipped() > 0) != tc.jumps {
			t.Errorf("%g s stages, elapsed %v s: skipped %d minibatches", tc.stage, got.Elapsed, fast.Skipped())
		}
	}
}
