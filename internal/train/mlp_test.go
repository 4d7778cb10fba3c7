package train

import (
	"math"
	"testing"

	"hetpipe/internal/data"
	"hetpipe/internal/tensor"
)

func mlpTask(t *testing.T) *MLP {
	t.Helper()
	ds, err := data.SyntheticClassification(11, 2000, 16, 4, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	tr, ev, err := ds.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMLP(tr, ev, 24, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMLPGradientMatchesFiniteDifference(t *testing.T) {
	m := mlpTask(t)
	m.ClipNorm = 0
	w := m.InitWeights()
	g := tensor.NewVector(m.Dim())
	m.Grad(w, 5, g)

	loss := func(w tensor.Vector) float64 {
		idx := referenceBatch(m.train, 5, m.batch)
		hid := tensor.NewVector(m.hidden)
		probs := tensor.NewVector(m.train.Classes)
		var sum float64
		for _, i := range idx {
			m.forward(w, m.train.X[i], hid, probs)
			p := probs[m.train.Y[i]]
			if p < 1e-12 {
				p = 1e-12
			}
			sum += -math.Log(p)
		}
		return sum / float64(len(idx))
	}
	const h = 1e-6
	for _, i := range []int{0, 7, m.Dim() / 2, m.Dim() - 1} {
		wp := w.Clone()
		wp[i] += h
		wm := w.Clone()
		wm[i] -= h
		num := (loss(wp) - loss(wm)) / (2 * h)
		if math.Abs(num-g[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("grad[%d] = %g, finite difference %g", i, g[i], num)
		}
	}
}

func TestMLPLearnsUnderWSP(t *testing.T) {
	m := mlpTask(t)
	stats, err := RunWSP(WSPConfig{
		Task: m, Workers: 2, SLocal: 3, D: 1, LR: 0.3,
		Periods: []float64{0.1, 0.11}, Jitter: 0.05, Seed: 5,
		MaxMinibatches: 1500, EvalEvery: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalAccuracy < 0.7 {
		t.Errorf("MLP accuracy under WSP = %.3f, want > 0.7", stats.FinalAccuracy)
	}
}

func TestMLPInitIsDeterministicAndNonZero(t *testing.T) {
	m := mlpTask(t)
	a, b := m.InitWeights(), m.InitWeights()
	var nonzero bool
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("init not deterministic")
		}
		if a[i] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("init all zero; hidden units would stay symmetric")
	}
}

func TestMLPValidation(t *testing.T) {
	ds, _ := data.SyntheticClassification(1, 100, 4, 2, 0.4)
	tr, ev, _ := ds.Split(0.5)
	if _, err := NewMLP(tr, ev, 0, 8, 1); err == nil {
		t.Error("zero hidden units accepted")
	}
	if _, err := NewMLP(tr, ev, 4, 0, 1); err == nil {
		t.Error("zero batch accepted")
	}
}

func TestSGDOptimizerStep(t *testing.T) {
	o := &SGD{LR: 0.5}
	out := tensor.NewVector(2)
	o.Step(1, tensor.Vector{2, -4}, out)
	if out[0] != -1 || out[1] != 2 {
		t.Errorf("sgd step = %v", out)
	}
}

func TestMomentumAccumulates(t *testing.T) {
	o, err := NewMomentum(1, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.NewVector(1)
	o.Step(1, tensor.Vector{1}, out) // v = -1
	if out[0] != -1 {
		t.Fatalf("step 1 = %v", out[0])
	}
	o.Step(2, tensor.Vector{1}, out) // v = -0.5 - 1 = -1.5
	if out[0] != -1.5 {
		t.Fatalf("step 2 = %v", out[0])
	}
	if _, err := NewMomentum(1, 1, 1.0); err == nil {
		t.Error("beta=1 accepted")
	}
	if _, err := NewMomentum(1, 0, 0.5); err == nil {
		t.Error("lr=0 accepted")
	}
}

func TestSchedules(t *testing.T) {
	if got := InverseSqrt(4); got != 0.5 {
		t.Errorf("InverseSqrt(4) = %v, want 0.5", got)
	}
	if got := InverseSqrt(0); got != 1 {
		t.Errorf("InverseSqrt(0) = %v, want 1 (clamped)", got)
	}
	sd := StepDecay(10)
	if sd(5) != 1 || sd(10) != 0.5 || sd(25) != 0.25 {
		t.Errorf("step decay = %v %v %v", sd(5), sd(10), sd(25))
	}
	wu := WarmupThen(10, StepDecay(10))
	if wu(0) != 0.1 {
		t.Errorf("warmup(0) = %v, want 0.1", wu(0))
	}
	if wu(9) != 1.0 {
		t.Errorf("warmup(9) = %v, want 1.0", wu(9))
	}
	if wu(20) != 0.5 {
		t.Errorf("warmup(20) = %v, want 0.5 (decayed)", wu(20))
	}
	wn := WarmupThen(5, nil)
	if wn(10) != 1 {
		t.Errorf("warmup-then-nil = %v, want 1", wn(10))
	}
}

// SGD with schedule applied through the WSP runner is exercised indirectly
// by convergence.Measure; here confirm an Optimizer can drive a plain loop.
func TestOptimizerDrivesTraining(t *testing.T) {
	lt := task(t)
	w := lt.InitWeights()
	g := tensor.NewVector(lt.Dim())
	up := tensor.NewVector(lt.Dim())
	opt, err := NewMomentum(lt.Dim(), 0.2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	before := lt.Loss(w)
	for i := 0; i < 300; i++ {
		lt.Grad(w, i, g)
		opt.Step(i+1, g, up)
		w.AddInPlace(up)
	}
	after := lt.Loss(w)
	if after >= before {
		t.Errorf("momentum training did not reduce loss: %g -> %g", before, after)
	}
}
