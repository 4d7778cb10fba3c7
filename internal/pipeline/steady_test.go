package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
// busy time, the clock), and the whole state right after the first jump
// (sameStateAfterJump). Each case takes one to three runs of 1 to 150
// minibatches. And the jump must fire on at least 90 % of the runs of 80
// minibatches or more, or the wall proves nothing.
//
// Mutations tried against it, each caught: leaving unshifted the clock, the
// pending events' times, a transfer's minibatch or start time, a device's
// service start, job in service, queued jobs or busy total, a ring's
// minibatches, the injected or completed counters, the open wave's first
// minibatch or the skipped completion times; dropping the horizon check;
// a jump one period past (Minibatches-injected)/P, which injects past the
// window's end; and a jump that keeps a wider margin, which leaves a period or
// more of injections to simulate (sameStateAfterJump). Any jump short of the
// end would be exact: the bound is the tightest, not the only, exact one.
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
				if dev.BusyTime() != tw.BusyTime() {
					t.Fatalf("%s window (%d, %d): GPU %d busy %v, full run %v", tc.id, n, cfg.Warmup, g,
						dev.BusyTime(), tw.BusyTime())
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
// numbers, the same hint, the same busy totals and completion times. Much of
// that (minibatch numbers, a transfer's start) no hook-free run ever reads,
// so only this comparison shows it shifted right. The jump must also leave
// fewer than a period of injections to simulate.
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
	if left := cfg.Minibatches - fast.pl.injected; left >= fast.st.period {
		t.Fatalf("%s window (%d, %d): the jump left %d injections to simulate, a period is %d",
			tc.id, cfg.Minibatches, cfg.Warmup, left, fast.st.period)
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
		hint                uint16
		finished            []sim.Time
		busy                []sim.Duration
	}
	of := func(r *Runner, eng *sim.Engine) state {
		s := state{now: eng.Now(), completed: r.pl.completed, injected: r.pl.injected,
			words:    r.state(nil),
			hint:     r.hint(),
			finished: r.pl.finished}
		for _, dev := range r.pl.x.Devices() {
			s.busy = append(s.busy, dev.BusyTime())
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

// TestHintOpensCandidatesStateConfirms: a hint match only opens a candidate,
// and the whole state decides it. Each hook-free run is stepped completion by
// completion beside its identity-hook twin, whose state and hint after every
// completion are kept. A candidate must open where the hint equals the one
// lag completions back, and snapshot the state; once due, it must confirm
// exactly when the state lag completions after it equals its own, and drop
// otherwise — also where the hint matched but the state did not, which the
// draws must contain. Mutations tried against it, each caught: confirming on
// a hint match alone, keeping an earlier candidate's snapshot, and a ring
// filter that never counts a hint. (A hint that reads an absolute instant or
// count — a device's busySince, completed — fails the jump rule of
// TestFastForwardEqualsFullRun and TestScaledTimesScaleTheRun.)
func TestHintOpensCandidatesStateConfirms(t *testing.T) {
	rounds := 24
	if testing.Short() {
		rounds = 8
	}
	rng := rand.New(rand.NewSource(31))
	var opened, hintOnly, hintOnlyConfirmed, confirmed, dropped int
	for _, tc := range ffCases(t, rng, rounds) {
		cfg := Config{Plan: tc.plan, Schedule: tc.s, Minibatches: 150, Warmup: 20}
		full := cfg
		full.TaskTime = identity
		var twin Runner
		engTwin := sim.New()
		if err := twin.start(engTwin, full); err != nil {
			t.Fatal(err)
		}
		states, hints := [][]uint64{nil}, []uint16{0}
		for engTwin.Step() {
			if twin.pl.completed == len(states) {
				states, hints = append(states, twin.state(nil)), append(hints, twin.hint())
			}
		}
		var fast Runner
		eng := sim.New()
		if err := fast.start(eng, cfg); err != nil {
			t.Fatal(err)
		}
		st := &fast.st
		cand, lag, hintMatchOnly := 0, 0, false
		for c := 0; fast.pl.injected < cfg.Minibatches && eng.Step(); {
			if fast.pl.completed-fast.Skipped() == c {
				continue
			}
			c = fast.pl.completed - fast.Skipped() // a confirmation jumps at once
			if cand > 0 && c == cand+lag {
				same := slices.Equal(states[c], states[cand])
				if got := st.period > 0; got != same {
					t.Fatalf("%s: the candidate at completion %d, lag %d, confirmed %v; its state recurred %v",
						tc.id, cand, lag, got, same)
				}
				if same {
					confirmed++
					if hintMatchOnly {
						hintOnlyConfirmed++
					}
					break
				}
				dropped++
				cand = 0
			}
			if st.cand == c && cand != c {
				cand, lag = c, st.lag
				if hints[c] != hints[c-lag] || !slices.Equal(st.snap, states[c]) {
					t.Fatalf("%s: a candidate opened at completion %d, lag %d, on hints %x and %x, or with another state",
						tc.id, c, lag, hints[c], hints[c-lag])
				}
				opened++
				if hintMatchOnly = !slices.Equal(states[c], states[c-lag]); hintMatchOnly {
					hintOnly++
				}
			}
		}
	}
	if hintOnly == 0 || dropped == 0 || confirmed == 0 {
		t.Errorf("%d candidates, %d opened on a hint whose state differed; %d confirmed, %d dropped: the draws prove nothing",
			opened, hintOnly, confirmed, dropped)
	}
	t.Logf("%d candidates, %d on a hint match alone (%d of them confirmed); %d confirmed, %d dropped",
		opened, hintOnly, hintOnlyConfirmed, confirmed, dropped)
}

// TestScaledTimesScaleTheRun: time is exact below sim.Horizon, so a plan
// whose times are multiples of 8 quanta, scaled by 2^k for k in -3..3, runs
// the same pipeline in scaled time — every completion time and Elapsed
// scaled by exactly 2^k, Throughput by 2^-k, utilization the same — and finds
// its period at the same completion, so that it skips the same minibatches.
func TestScaledTimesScaleTheRun(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	rng := rand.New(rand.NewSource(37))
	eng := sim.New()
	var r Runner
	for _, tc := range ffCases(t, rng, rounds) {
		n := 1 + rng.Intn(150)
		cfg := Config{Plan: scaledPlan(tc.plan, 1), Schedule: tc.s, Minibatches: n, Warmup: rng.Intn(n)}
		want, err := r.Run(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if 8*want.Elapsed >= sim.Horizon/2 {
			t.Fatalf("%s: elapsed %v s leaves no room to scale below the horizon", tc.id, want.Elapsed)
		}
		finished, skipped := slices.Clone(r.pl.finished), r.Skipped()
		for k := -3; k <= 3; k++ {
			f := math.Ldexp(1, k)
			cfg.Plan = scaledPlan(tc.plan, f)
			got, err := r.Run(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scaled := Summary{Throughput: want.Throughput / f, Elapsed: sim.Time(f) * want.Elapsed, MaxGPUUtil: want.MaxGPUUtil}
			if got != scaled || r.Skipped() != skipped {
				t.Fatalf("%s scaled by 2^%d: %+v, skipped %d; unscaled %+v, skipped %d", tc.id, k, got, r.Skipped(), want, skipped)
			}
			for i, at := range r.pl.finished {
				if at != sim.Time(f)*finished[i] {
					t.Fatalf("%s scaled by 2^%d: completion %d at %v, unscaled at %v", tc.id, k, i, at, finished[i])
				}
			}
		}
	}
}

// scaledPlan copies plan with every chunk's times rounded to a multiple of 8
// quanta and then multiplied by f.
func scaledPlan(plan *partition.Plan, f float64) *partition.Plan {
	round := func(x float64) float64 { return f * math.Round(x*(1<<37)) / (1 << 37) }
	out := *plan
	out.Stages = slices.Clone(plan.Stages)
	for s := range out.Stages {
		chunks := slices.Clone(out.Stages[s].Chunks)
		for i := range chunks {
			c := &chunks[i]
			c.FwdTime, c.BwdTime = round(c.FwdTime), round(c.BwdTime)
			c.RecvActTime, c.RecvGradTime = round(c.RecvActTime), round(c.RecvGradTime)
		}
		out.Stages[s].Chunks = chunks
	}
	return &out
}
