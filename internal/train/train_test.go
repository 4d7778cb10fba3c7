package train

import (
	"math"
	"testing"

	"hetpipe/internal/tensor"
	"hetpipe/internal/wsp"
)

func task(t *testing.T) *LogReg {
	t.Helper()
	lt, err := DefaultTask(7)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

func TestLogRegGradientMatchesFiniteDifference(t *testing.T) {
	lt := task(t)
	lt.ClipNorm = 0 // clipping would break the finite-difference check
	w := lt.InitWeights()
	for i := range w {
		w[i] = 0.01 * float64(i%7)
	}
	g := tensor.NewVector(lt.Dim())
	lt.Grad(w, 3, g)

	// Build the same minibatch loss explicitly through Loss on a task whose
	// training set is just that batch — instead, use directional finite
	// differences of the batch objective reconstructed via Grad's own
	// definition: check d/dh of f(w+h*e_i) ~ g_i for the full-batch case.
	// Use a tiny task where batch == dataset for exactness.
	probeDims := []int{0, 5, 17, lt.Dim() - 1}
	const h = 1e-6
	for _, i := range probeDims {
		wp := w.Clone()
		wp[i] += h
		wm := w.Clone()
		wm[i] -= h
		num := (batchLoss(lt, wp, 3) - batchLoss(lt, wm, 3)) / (2 * h)
		if math.Abs(num-g[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("grad[%d] = %g, finite difference %g", i, g[i], num)
		}
	}
}

// batchLoss recomputes the minibatch cross-entropy + ridge objective that
// Grad differentiates.
func batchLoss(lt *LogReg, w tensor.Vector, b int) float64 {
	idx := referenceBatch(lt.train, b, lt.batch)
	probs := tensor.NewVector(lt.train.Classes)
	var sum float64
	for _, i := range idx {
		lt.logits(w, lt.train.X[i], probs)
		tensor.Softmax(probs)
		p := probs[lt.train.Y[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		sum += -math.Log(p)
	}
	return sum/float64(len(idx)) + 0.5*lt.L2*w.Dot(w)
}

func TestSingleWorkerWSPConverges(t *testing.T) {
	lt := task(t)
	stats, err := RunWSP(WSPConfig{
		Task: lt, Workers: 1, SLocal: 0, D: 0, LR: 0.5,
		Periods: []float64{0.1}, Seed: 1,
		MaxMinibatches: 1500, EvalEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalAccuracy < 0.75 {
		t.Errorf("final accuracy = %.3f, want > 0.75", stats.FinalAccuracy)
	}
	first := stats.Loss.Points[0].V
	last := stats.Loss.Points[len(stats.Loss.Points)-1].V
	if last >= first {
		t.Errorf("loss did not decrease: %g -> %g", first, last)
	}
}

func TestPipelinedStalenessStillConverges(t *testing.T) {
	// slocal = 3 (Nm=4): updates apply with delay, convergence must hold
	// (the paper's core claim, Theorem 1).
	lt := task(t)
	stats, err := RunWSP(WSPConfig{
		Task: lt, Workers: 1, SLocal: 3, D: 0, LR: 0.3,
		Periods: []float64{0.1}, Seed: 1,
		MaxMinibatches: 2000, EvalEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalAccuracy < 0.75 {
		t.Errorf("final accuracy with slocal=3: %.3f, want > 0.75", stats.FinalAccuracy)
	}
}

func TestMultiWorkerWSPConverges(t *testing.T) {
	lt := task(t)
	stats, err := RunWSP(WSPConfig{
		Task: lt, Workers: 4, SLocal: 3, D: 0, LR: 0.25,
		Periods: []float64{0.1, 0.1, 0.1, 0.1}, Jitter: 0.05, Seed: 2,
		MaxMinibatches: 800, EvalEvery: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalAccuracy < 0.75 {
		t.Errorf("final accuracy = %.3f, want > 0.75", stats.FinalAccuracy)
	}
	if stats.Pushes == 0 {
		t.Error("no wave pushes recorded")
	}
	if stats.MaxClockDistance > 1 {
		t.Errorf("D=0 run saw clock distance %d, want <= 1", stats.MaxClockDistance)
	}
}

func TestWSPWaveAggregationReducesPushes(t *testing.T) {
	// Pushes happen once per wave: minibatches / (slocal+1) per worker.
	lt := task(t)
	stats, err := RunWSP(WSPConfig{
		Task: lt, Workers: 2, SLocal: 3, D: 0, LR: 0.2,
		Periods: []float64{0.1, 0.1}, Seed: 3,
		MaxMinibatches: 400, EvalEvery: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 400 / 4
	if stats.Pushes != want {
		t.Errorf("pushes = %d, want %d (one per wave)", stats.Pushes, want)
	}
}

func TestWSPDeterminism(t *testing.T) {
	lt := task(t)
	cfg := WSPConfig{
		Task: lt, Workers: 3, SLocal: 2, D: 1, LR: 0.2,
		Periods: []float64{0.1, 0.12, 0.15}, Jitter: 0.1, Seed: 11,
		MaxMinibatches: 300, EvalEvery: 100,
	}
	a, err := RunWSP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWSP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAccuracy != b.FinalAccuracy || a.Elapsed != b.Elapsed || a.Waiting != b.Waiting {
		t.Errorf("nondeterministic runs: %+v vs %+v", a, b)
	}
}

func TestLargerDReducesWaitingWithStraggler(t *testing.T) {
	// One slow worker (NP-like). D=4 must wait less than D=0.
	lt := task(t)
	base := WSPConfig{
		Task: lt, Workers: 4, SLocal: 3, LR: 0.2,
		Periods: []float64{0.08, 0.09, 0.1, 0.2}, Jitter: 0.05, Seed: 5,
		MaxMinibatches: 400, EvalEvery: 200,
	}
	d0 := base
	d0.D = 0
	r0, err := RunWSP(d0)
	if err != nil {
		t.Fatal(err)
	}
	d4 := base
	d4.D = 4
	r4, err := RunWSP(d4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Waiting >= r0.Waiting {
		t.Errorf("waiting: D=4 %.2f >= D=0 %.2f", r4.Waiting, r0.Waiting)
	}
	if r0.Waiting <= 0 {
		t.Error("straggler config should induce waiting at D=0")
	}
	// Pipelining hides most of the wait: idle is a fraction of waiting.
	if r0.Idle > r0.Waiting {
		t.Errorf("idle %.2f exceeds waiting %.2f", r0.Idle, r0.Waiting)
	}
}

func TestLazyPullCreditsOnlyVisibleClock(t *testing.T) {
	// Regression: on a lazy pull the worker used to credit itself with the
	// coordinator's instantaneous clock, which can run ahead of the clock
	// actually visible at simulated time now when pushes have asymmetric
	// latencies — so later pulls it should have paid for were skipped. With
	// only the gate's required clock credited, every gated wave-end pulls:
	// exactly GatedPulls per worker, whatever the transfer times.
	lt := task(t)
	const workers, slocal, d, maxMB = 3, 1, 1, 32
	for _, pushTimes := range [][]float64{
		{0, 0, 0},
		{0.9, 0.05, 0.3}, // strongly asymmetric arrival times
	} {
		stats, err := RunWSP(WSPConfig{
			Task: lt, Workers: workers, SLocal: slocal, D: d, LR: 0.2,
			Periods:  []float64{0.1, 0.14, 0.2},
			PushTime: pushTimes, Seed: 17,
			MaxMinibatches: maxMB, EvalEvery: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		params := wsp.Params{SLocal: slocal, D: d, Workers: workers}
		want := workers * params.GatedPulls(maxMB)
		if stats.Pulls != want {
			t.Errorf("push times %v: pulls = %d, want %d", pushTimes, stats.Pulls, want)
		}
	}
}

func TestPullTransferWaitsForWorkerFree(t *testing.T) {
	// Regression for the stale pullReadyAt latch: the pull transfer's start
	// was latched with the slotFreeAt seen on the first gate query and never
	// refreshed, so the pull could "finish" before the worker was free to
	// issue it.
	//
	// Hand-traced schedule (2 workers, Nm=2, D=0, no jitter): worker 1 races
	// ahead (period 0.1); worker 0 (period 1) completes wave 0 at t=2, which
	// is when the global clock becomes visible. Worker 0's minibatch 3 is
	// still in flight until t=3, inside the latched pull window [2, 4). The
	// pull for the gated minibatch 4 must therefore start at t=3, finish at
	// t=5, and complete the run at t=6 — the buggy latch injected at t=4 and
	// finished at t=5.
	lt := task(t)
	stats, err := RunWSP(WSPConfig{
		Task: lt, Workers: 2, SLocal: 1, D: 0, LR: 0.2,
		Periods:  []float64{1, 0.1},
		PullTime: []float64{2, 0}, Seed: 1,
		MaxMinibatches: 4, EvalEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.Elapsed-6) > 1e-9 {
		t.Errorf("elapsed = %g, want 6 (pull start must track slotFreeAt)", stats.Elapsed)
	}
}

func TestWSPNumericsIndependentOfTiming(t *testing.T) {
	// The co-simulation separates timing from numerics: periods, jitter, and
	// transfer times decide WHEN things happen, while the update schedule —
	// snapshots at logical lag Nm, pulls of clock-versioned prefixes — is a
	// pure function of the protocol parameters. Two runs with wildly
	// different timing must produce bit-identical weights; this is also what
	// lets the live sharded-PS runtime (internal/cluster) reproduce the
	// simulator's trajectory.
	lt := task(t)
	base := WSPConfig{
		Task: lt, Workers: 3, SLocal: 2, D: 1, LR: 0.2, Seed: 5,
		MaxMinibatches: 60, EvalEvery: 25,
	}
	a := base
	a.Periods = []float64{0.1, 0.1, 0.1}
	ra, err := RunWSP(a)
	if err != nil {
		t.Fatal(err)
	}
	b := base
	b.Periods = []float64{0.05, 0.4, 1.3}
	b.Jitter = 0.2
	b.PushTime = []float64{0.3, 0, 0.9}
	b.PullTime = []float64{0.2, 0.7, 0}
	rb, err := RunWSP(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Minibatches != rb.Minibatches || ra.Pushes != rb.Pushes || ra.Pulls != rb.Pulls {
		t.Fatalf("counts diverge across timings: %d/%d/%d vs %d/%d/%d",
			ra.Minibatches, ra.Pushes, ra.Pulls, rb.Minibatches, rb.Pushes, rb.Pulls)
	}
	for i := range ra.FinalWeights {
		if ra.FinalWeights[i] != rb.FinalWeights[i] {
			t.Fatalf("weights diverge at %d: %g vs %g", i, ra.FinalWeights[i], rb.FinalWeights[i])
		}
	}
	if ra.Elapsed == rb.Elapsed {
		t.Error("timing configs were supposed to differ")
	}
}

func TestNoDuplicateFinalEvalPoint(t *testing.T) {
	// Regression: when the last scheduled evaluation already ran at the final
	// simulated time, RunWSP appended a second, identical point.
	lt := task(t)
	stats, err := RunWSP(WSPConfig{
		Task: lt, Workers: 2, SLocal: 1, D: 0, LR: 0.2,
		Periods: []float64{0.1, 0.1}, Seed: 3,
		MaxMinibatches: 8, EvalEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(stats.Accuracy.Points), stats.Minibatches; got != want {
		t.Errorf("eval points = %d, want %d (one per completion, no duplicate tail)", got, want)
	}
}

func TestWSPRespectsDistanceBound(t *testing.T) {
	lt := task(t)
	for _, d := range []int{0, 2} {
		stats, err := RunWSP(WSPConfig{
			Task: lt, Workers: 3, SLocal: 1, D: d, LR: 0.2,
			Periods: []float64{0.05, 0.1, 0.3}, Seed: 9,
			MaxMinibatches: 200, EvalEvery: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.MaxClockDistance > d+1 {
			t.Errorf("D=%d: observed distance %d > %d", d, stats.MaxClockDistance, d+1)
		}
	}
}

func TestBSPConverges(t *testing.T) {
	lt := task(t)
	stats, err := RunBSP(BSPConfig{
		Task: lt, Periods: []float64{0.1, 0.1, 0.1, 0.1},
		AllReduceTime: 0.02, LR: 0.25, Jitter: 0.05, Seed: 4,
		MaxIterations: 250, EvalEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalAccuracy < 0.75 {
		t.Errorf("BSP final accuracy = %.3f, want > 0.75", stats.FinalAccuracy)
	}
}

func TestBSPStragglerSlowsWallClock(t *testing.T) {
	lt := task(t)
	fast, err := RunBSP(BSPConfig{
		Task: lt, Periods: []float64{0.1, 0.1, 0.1, 0.1},
		AllReduceTime: 0.01, LR: 0.25, Seed: 4, MaxIterations: 100, EvalEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunBSP(BSPConfig{
		Task: lt, Periods: []float64{0.1, 0.1, 0.1, 0.3},
		AllReduceTime: 0.01, LR: 0.25, Seed: 4, MaxIterations: 100, EvalEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Elapsed <= fast.Elapsed {
		t.Errorf("straggler run %.2fs not slower than uniform %.2fs", slow.Elapsed, fast.Elapsed)
	}
	// The straggler forces everyone to its pace: 0.3 per iteration.
	if slow.Elapsed < 100*0.3 {
		t.Errorf("BSP elapsed %.2f, want >= %.2f (slowest-paced)", slow.Elapsed, 100*0.3)
	}
}

func TestSSPConvergesAndOutpacesBSPWithStraggler(t *testing.T) {
	lt := task(t)
	periods := []float64{0.1, 0.1, 0.1, 0.25}
	bsp, err := RunBSP(BSPConfig{
		Task: lt, Periods: periods, AllReduceTime: 0.01, LR: 0.2, Seed: 6,
		MaxIterations: 200, EvalEvery: 40, TargetAccuracy: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ssp, err := RunSSP(SSPConfig{
		Task: lt, Periods: periods, Staleness: 3, SyncTime: 0.01, LR: 0.2, Seed: 6,
		MaxIterations: 200, EvalEvery: 40, TargetAccuracy: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ssp.ReachedTarget {
		t.Fatalf("SSP did not reach target (final %.3f)", ssp.FinalAccuracy)
	}
	if bsp.ReachedTarget && ssp.TimeToTarget >= bsp.TimeToTarget {
		t.Errorf("SSP (%.1fs) not faster than BSP (%.1fs) under straggler", ssp.TimeToTarget, bsp.TimeToTarget)
	}
}

func TestConfigValidation(t *testing.T) {
	lt := task(t)
	bad := []WSPConfig{
		{Workers: 1, SLocal: 0, LR: 0.1, Periods: []float64{1}, MaxMinibatches: 1, EvalEvery: 1},             // nil task
		{Task: lt, Workers: 0, LR: 0.1, Periods: nil, MaxMinibatches: 1, EvalEvery: 1},                       // no workers
		{Task: lt, Workers: 1, LR: 0, Periods: []float64{1}, MaxMinibatches: 1, EvalEvery: 1},                // lr
		{Task: lt, Workers: 2, LR: 0.1, Periods: []float64{1}, MaxMinibatches: 1, EvalEvery: 1},              // period len
		{Task: lt, Workers: 1, LR: 0.1, Periods: []float64{-1}, MaxMinibatches: 1, EvalEvery: 1},             // period sign
		{Task: lt, Workers: 1, LR: 0.1, Periods: []float64{1}, MaxMinibatches: 0, EvalEvery: 1},              // budget
		{Task: lt, Workers: 1, LR: 0.1, Periods: []float64{1}, MaxMinibatches: 1, EvalEvery: 0},              // eval
		{Task: lt, Workers: 1, SLocal: -1, LR: 0.1, Periods: []float64{1}, MaxMinibatches: 1, EvalEvery: 1},  // slocal
		{Task: lt, Workers: 1, Jitter: 1.5, LR: 0.1, Periods: []float64{1}, MaxMinibatches: 1, EvalEvery: 1}, // jitter
	}
	for i, cfg := range bad {
		if _, err := RunWSP(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := RunBSP(BSPConfig{Task: lt, Periods: []float64{1}, LR: 0.1, MaxIterations: 1, EvalEvery: 1, AllReduceTime: -1}); err == nil {
		t.Error("negative all-reduce time accepted")
	}
	if _, err := RunSSP(SSPConfig{Task: lt, Periods: []float64{1}, Staleness: -1, LR: 0.1, MaxIterations: 1, EvalEvery: 1}); err == nil {
		t.Error("negative staleness accepted")
	}
}

func TestTargetAccuracyStopsEarly(t *testing.T) {
	lt := task(t)
	stats, err := RunWSP(WSPConfig{
		Task: lt, Workers: 2, SLocal: 1, D: 0, LR: 0.4,
		Periods: []float64{0.1, 0.1}, Seed: 8,
		MaxMinibatches: 5000, EvalEvery: 50, TargetAccuracy: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ReachedTarget {
		t.Fatalf("never reached 0.7 (final %.3f)", stats.FinalAccuracy)
	}
	if stats.Minibatches >= 2*5000 {
		t.Error("run did not stop early")
	}
	if stats.TimeToTarget <= 0 || stats.TimeToTarget > stats.Elapsed {
		t.Errorf("time to target %.2f outside (0, %.2f]", stats.TimeToTarget, stats.Elapsed)
	}
}
