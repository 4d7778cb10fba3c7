package train

import (
	"context"
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
	m, err := newMLP(tr, ev, 24, 32, 3)
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
	stats, err := RunWSP(context.Background(), WSPConfig{
		Task: m, Workers: 2, SLocal: 3, D: 1, LR: 0.3,
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
	if _, err := newMLP(tr, ev, 0, 8, 1); err == nil {
		t.Error("zero hidden units accepted")
	}
	if _, err := newMLP(tr, ev, 4, 0, 1); err == nil {
		t.Error("zero batch accepted")
	}
}
