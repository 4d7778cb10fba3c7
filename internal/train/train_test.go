package train

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
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
	stats, err := RunWSP(context.Background(), WSPConfig{
		Task: lt, Workers: 1, SLocal: 0, D: 0, LR: 0.5,
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
	stats, err := RunWSP(context.Background(), WSPConfig{
		Task: lt, Workers: 1, SLocal: 3, D: 0, LR: 0.3,
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
	stats, err := RunWSP(context.Background(), WSPConfig{
		Task: lt, Workers: 4, SLocal: 3, D: 0, LR: 0.25,
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
	stats, err := RunWSP(context.Background(), WSPConfig{
		Task: lt, Workers: 2, SLocal: 3, D: 0, LR: 0.2,
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
		MaxMinibatches: 300, EvalEvery: 100,
	}
	a, err := RunWSP(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWSP(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAccuracy != b.FinalAccuracy || a.FinalLoss != b.FinalLoss || a.Elapsed != b.Elapsed {
		t.Errorf("nondeterministic runs: %+v vs %+v", a, b)
	}
	for i := range a.FinalWeights {
		if a.FinalWeights[i] != b.FinalWeights[i] {
			t.Fatalf("weights differ at %d: %g vs %g", i, a.FinalWeights[i], b.FinalWeights[i])
		}
	}
}

func TestLazyPullCreditsOnlyVisibleClock(t *testing.T) {
	// Regression: on a lazy pull the worker used to credit itself with the
	// coordinator's instantaneous clock, which can run ahead of the clock its
	// gate required — so later pulls it should have paid for were skipped.
	// With only the gate's required clock credited, every gated wave-end
	// pulls: exactly GatedPulls per worker, even here, where minibatch-major
	// stepping has every peer's newest wave sealed before each gate.
	lt := task(t)
	const workers, slocal, maxMB = 3, 1, 32
	for _, d := range []int{0, 1, 4} {
		stats, err := RunWSP(context.Background(), WSPConfig{
			Task: lt, Workers: workers, SLocal: slocal, D: d, LR: 0.2,
			MaxMinibatches: maxMB, EvalEvery: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		params := wsp.Params{SLocal: slocal, D: d, Workers: workers}
		if want := workers * params.GatedPulls(maxMB); stats.Pulls != want {
			t.Errorf("D=%d: pulls = %d, want %d", d, stats.Pulls, want)
		}
		if stats.MaxStaleness > params.SGlobal() {
			t.Errorf("D=%d: observed staleness %d exceeds sglobal %d", d, stats.MaxStaleness, params.SGlobal())
		}
	}
}

func TestNoDuplicateFinalEvalPoint(t *testing.T) {
	// Regression, both runners: when the last scheduled evaluation already ran
	// at the run's final time, a second, identical point closed the curve.
	// RunBSP did so whenever the budget was a multiple of EvalEvery and the
	// target was not met.
	lt := task(t)
	for _, c := range []struct {
		name          string
		budget, every int
		want          int // curve points
	}{
		{"every completion", 8, 1, 8},
		{"budget a multiple of the cadence", 8, 4, 2},
		{"budget past the last evaluation", 9, 4, 3},
		{"cadence beyond the budget", 8, 100, 1},
	} {
		wspStats, err := RunWSP(context.Background(), WSPConfig{
			Task: lt, Workers: 1, SLocal: 1, D: 0, LR: 0.2,
			MaxMinibatches: c.budget, EvalEvery: c.every,
		})
		if err != nil {
			t.Fatal(err)
		}
		bspStats, err := RunBSP(t.Context(), BSPConfig{
			Task: lt, Periods: []float64{0.1, 0.2}, AllReduceTime: 0.01, LR: 0.2,
			MaxIterations: c.budget, EvalEvery: c.every,
		})
		if err != nil {
			t.Fatal(err)
		}
		for runner, st := range map[string]*RunStats{"RunWSP": wspStats, "RunBSP": bspStats} {
			pts := st.Accuracy.Points
			if len(pts) != c.want || len(st.Loss.Points) != c.want {
				t.Errorf("%s, %s: %d accuracy and %d loss points, want %d", runner, c.name, len(pts), len(st.Loss.Points), c.want)
			}
			for i := 1; i < len(pts); i++ {
				if pts[i].T == pts[i-1].T {
					t.Errorf("%s, %s: two points at t=%g", runner, c.name, pts[i].T)
				}
			}
			if last, _ := st.Accuracy.Last(); last.T != st.Elapsed || last.V != st.FinalAccuracy {
				t.Errorf("%s, %s: curve ends at (%g, %g), run at (%g, %g)", runner, c.name, last.T, last.V, st.Elapsed, st.FinalAccuracy)
			}
		}
	}
}

func TestBSPConverges(t *testing.T) {
	lt := task(t)
	stats, err := RunBSP(t.Context(), BSPConfig{
		Task: lt, Periods: []float64{0.1, 0.1, 0.1, 0.1},
		AllReduceTime: 0.02, LR: 0.25,
		MaxIterations: 250, EvalEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalAccuracy < 0.75 {
		t.Errorf("BSP final accuracy = %.3f, want > 0.75", stats.FinalAccuracy)
	}
}

// gradCounter counts the gradients a run asks of its task.
type gradCounter struct {
	Task
	grads int
}

func (c *gradCounter) Grad(w tensor.Vector, b int, out tensor.Vector) {
	c.grads++
	c.Task.Grad(w, b, out)
}

// TestBSPStopsWhenCancelled: a cancelled context ends RunBSP at its next
// evaluation point with ctx.Err() and no statistics.
func TestBSPStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	counted := &gradCounter{Task: task(t)}
	st, err := RunBSP(ctx, BSPConfig{
		Task: counted, Periods: []float64{0.1, 0.1}, LR: 0.25,
		MaxIterations: 64, EvalEvery: 4,
	})
	if !errors.Is(err, context.Canceled) || st != nil {
		t.Errorf("RunBSP(cancelled) = %v, %v; want no stats and context.Canceled", st, err)
	}
	if counted.grads != 4*2 {
		t.Errorf("RunBSP(cancelled) took %d gradients, want 8: 4 iterations of 2 workers to the first evaluation point", counted.grads)
	}
}

// TestWSPStopsWhenCancelled: RunWSP checks its context once per minibatch
// round, so a cancel that lands inside a round ends the run when that round
// is done, with ctx.Err() and no statistics. The task cancels at gradient 7
// of a three-worker run; round 3 (gradients 7 to 9) completes, round 4 never
// starts.
func TestWSPStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	counted := &cancelAt{gradCounter: gradCounter{Task: task(t)}, at: 7, cancel: cancel}
	st, err := RunWSP(ctx, WSPConfig{
		Task: counted, Workers: 3, LR: 0.25, MaxMinibatches: 64, EvalEvery: 4,
	})
	if !errors.Is(err, context.Canceled) || st != nil {
		t.Errorf("RunWSP(cancelled) returned stats: %t, error %v; want no stats and context.Canceled", st != nil, err)
	}
	if counted.grads != 3*3 {
		t.Errorf("RunWSP(cancelled at gradient 7) took %d gradients, want 9: the 3 rounds of 3 workers begun before the cancel", counted.grads)
	}
}

// cancelAt is a gradCounter that cancels its run at gradient at.
type cancelAt struct {
	gradCounter
	at     int
	cancel context.CancelFunc
}

func (c *cancelAt) Grad(w tensor.Vector, b int, out tensor.Vector) {
	c.gradCounter.Grad(w, b, out)
	if c.grads == c.at {
		c.cancel()
	}
}

func TestBSPStragglerSlowsWallClock(t *testing.T) {
	lt := task(t)
	fast, err := RunBSP(t.Context(), BSPConfig{
		Task: lt, Periods: []float64{0.1, 0.1, 0.1, 0.1},
		AllReduceTime: 0.01, LR: 0.25, MaxIterations: 100, EvalEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunBSP(t.Context(), BSPConfig{
		Task: lt, Periods: []float64{0.1, 0.1, 0.1, 0.3},
		AllReduceTime: 0.01, LR: 0.25, MaxIterations: 100, EvalEvery: 100,
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

func TestConfigValidation(t *testing.T) {
	lt := task(t)
	bad := []WSPConfig{
		{Workers: 1, SLocal: 0, LR: 0.1, MaxMinibatches: 1, EvalEvery: 1},            // nil task
		{Task: lt, Workers: 0, LR: 0.1, MaxMinibatches: 1, EvalEvery: 1},             // no workers
		{Task: lt, Workers: 1, LR: 0, MaxMinibatches: 1, EvalEvery: 1},               // lr
		{Task: lt, Workers: 1, LR: 0.1, MaxMinibatches: 0, EvalEvery: 1},             // budget
		{Task: lt, Workers: 1, LR: 0.1, MaxMinibatches: 1, EvalEvery: 0},             // eval
		{Task: lt, Workers: 1, SLocal: -1, LR: 0.1, MaxMinibatches: 1, EvalEvery: 1}, // slocal
		{Task: lt, Workers: 1, D: -1, LR: 0.1, MaxMinibatches: 1, EvalEvery: 1},      // D
	}
	for i, cfg := range bad {
		if _, err := RunWSP(context.Background(), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	for name, cfg := range map[string]BSPConfig{
		"negative all-reduce time": {Task: lt, Periods: []float64{1}, LR: 0.1, MaxIterations: 1, EvalEvery: 1, AllReduceTime: -1},
		"no workers":               {Task: lt, LR: 0.1, MaxIterations: 1, EvalEvery: 1},
		"non-positive period":      {Task: lt, Periods: []float64{1, 0}, LR: 0.1, MaxIterations: 1, EvalEvery: 1},
	} {
		if _, err := RunBSP(t.Context(), cfg); err == nil {
			t.Errorf("BSP config with %s accepted", name)
		}
	}
}

func TestTargetLossStopsEarly(t *testing.T) {
	lt := task(t)
	stats, err := RunWSP(context.Background(), WSPConfig{
		Task: lt, Workers: 2, SLocal: 1, D: 0, LR: 0.4,
		MaxMinibatches: 5000, EvalEvery: 50, TargetLoss: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ReachedTarget {
		t.Fatalf("never reached loss 0.5 (final %.3f)", stats.FinalLoss)
	}
	if stats.Minibatches >= 2*5000 {
		t.Error("run did not stop early")
	}
	if stats.TimeToTarget <= 0 || stats.TimeToTarget > stats.Elapsed {
		t.Errorf("time to target %.2f outside (0, %.2f]", stats.TimeToTarget, stats.Elapsed)
	}
}

// TestTaskNamed: the catalog builds each name's standard study task, the
// same as its Default constructor, and knows no other name.
func TestTaskNamed(t *testing.T) {
	for name, want := range map[string]func(int64) (Task, error){
		"logreg": func(seed int64) (Task, error) { return DefaultTask(seed) },
		"mlp":    func(seed int64) (Task, error) { return DefaultMLPTask(seed) },
	} {
		build, ok := TaskNamed(name)
		if !ok {
			t.Fatalf("TaskNamed(%q) not found", name)
		}
		got, err := build(3)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := want(3)
		if err != nil {
			t.Fatal(err)
		}
		w := ref.InitWeights()
		if reflect.TypeOf(got) != reflect.TypeOf(ref) || !slices.Equal(got.InitWeights(), w) || got.Loss(w) != ref.Loss(w) {
			t.Errorf("TaskNamed(%q) built a different task than its Default constructor", name)
		}
	}
	for _, name := range []string{"", "gpt", "LogReg"} {
		if _, ok := TaskNamed(name); ok {
			t.Errorf("TaskNamed(%q) found a task", name)
		}
	}
}
