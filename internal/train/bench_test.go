package train

import (
	"context"
	"testing"

	"hetpipe/internal/tensor"
)

// BenchmarkLogRegGrad measures one minibatch gradient of the convergence
// task (batch 32, 10 classes, 40 dims).
func BenchmarkLogRegGrad(b *testing.B) {
	lt, err := DefaultTask(7)
	if err != nil {
		b.Fatal(err)
	}
	w := lt.InitWeights()
	g := tensor.NewVector(lt.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.Grad(w, i, g)
	}
}

// BenchmarkWSPNumerics measures one full timing-free WSP run (RunWSP): 4
// virtual workers, 200 minibatches each, stepped minibatch-major, with wave
// pushes, lazy pulls and the evaluation passes.
func BenchmarkWSPNumerics(b *testing.B) {
	lt, err := DefaultTask(7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := WSPConfig{
		Task: lt, Workers: 4, SLocal: 3, D: 1, LR: 0.1,
		MaxMinibatches: 200, EvalEvery: 200,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWSP(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPGrad measures one minibatch gradient of the non-convex study
// task (batch 32, 4 classes, 16 dims, 24 hidden units) — the step the live
// runtime pays once per retired minibatch.
func BenchmarkMLPGrad(b *testing.B) {
	m, err := DefaultMLPTask(7)
	if err != nil {
		b.Fatal(err)
	}
	w := m.InitWeights()
	g := tensor.NewVector(m.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grad(w, i, g)
	}
}
