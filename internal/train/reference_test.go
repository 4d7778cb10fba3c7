package train

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hetpipe/internal/data"
	"hetpipe/internal/tensor"
)

// The reference* functions below are the per-sample numerics both tasks ran
// before their gradients were rebuilt on tensor.MatVec and tensor.AddOuter:
// one Dot per weight row, one AXPY per gradient row per sample, minibatches
// addressed through an index slice. They are kept verbatim as the oracle the
// batched code must match to the last bit — every weight trajectory, golden
// and sim-vs-live conformance result in the repository hangs off these sums.

// referenceBatch is the old data.Dataset.Batch: the sample indices of
// minibatch b, wrapping around the dataset (epochs).
func referenceBatch(d *data.Dataset, b, size int) []int {
	if size < 1 {
		panic("data: batch size must be positive")
	}
	idx := make([]int, size)
	start := (b * size) % d.Len()
	for i := range idx {
		idx[i] = (start + i) % d.Len()
	}
	return idx
}

func (t *MLP) referenceForward(w tensor.Vector, x tensor.Vector, hid, probs tensor.Vector) {
	w1, b1, w2, b2 := t.views(w)
	d, h, c := t.train.Dim, t.hidden, t.train.Classes
	for j := 0; j < h; j++ {
		hid[j] = math.Tanh(w1[j*d:(j+1)*d].Dot(x) + b1[j])
	}
	for k := 0; k < c; k++ {
		probs[k] = w2[k*h:(k+1)*h].Dot(hid) + b2[k]
	}
	tensor.Softmax(probs)
}

func (t *MLP) referenceGrad(w tensor.Vector, b int, out tensor.Vector) {
	out.Zero()
	d, h, c := t.train.Dim, t.hidden, t.train.Classes
	w1, _, w2, _ := t.views(w)
	g1, gb1, g2, gb2 := t.views(out)
	hid := tensor.NewVector(h)
	probs := tensor.NewVector(c)
	dhid := tensor.NewVector(h)
	idx := referenceBatch(t.train, b, t.batch)
	inv := 1 / float64(len(idx))
	_ = w1
	for _, i := range idx {
		x := t.train.X[i]
		t.referenceForward(w, x, hid, probs)
		// dL/dlogits = probs - onehot(y).
		for k := 0; k < c; k++ {
			delta := probs[k] * inv
			if k == t.train.Y[i] {
				delta -= inv
			}
			g2[k*h:(k+1)*h].AXPY(delta, hid)
			gb2[k] += delta
		}
		// Backprop into the hidden layer: dL/dhid = W2^T (probs-onehot).
		dhid.Zero()
		for k := 0; k < c; k++ {
			delta := probs[k]
			if k == t.train.Y[i] {
				delta -= 1
			}
			dhid.AXPY(delta*inv, w2[k*h:(k+1)*h])
		}
		// Through tanh: (1 - hid^2).
		for j := 0; j < h; j++ {
			dj := dhid[j] * (1 - hid[j]*hid[j])
			g1[j*d:(j+1)*d].AXPY(dj, x)
			gb1[j] += dj
		}
	}
	if t.ClipNorm > 0 {
		tensor.Clip(out, t.ClipNorm)
	}
}

func (t *MLP) referenceLoss(w tensor.Vector) float64 {
	hid := tensor.NewVector(t.hidden)
	probs := tensor.NewVector(t.train.Classes)
	var sum float64
	for i := range t.train.X {
		t.referenceForward(w, t.train.X[i], hid, probs)
		p := probs[t.train.Y[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		sum += -math.Log(p)
	}
	return sum / float64(len(t.train.X))
}

func (t *MLP) referenceAccuracy(w tensor.Vector) float64 {
	hid := tensor.NewVector(t.hidden)
	probs := tensor.NewVector(t.eval.Classes)
	correct := 0
	for i := range t.eval.X {
		t.referenceForward(w, t.eval.X[i], hid, probs)
		if tensor.Argmax(probs) == t.eval.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(t.eval.X))
}

func (t *LogReg) referenceRow(w tensor.Vector, c int) tensor.Vector {
	d := t.train.Dim + 1
	return w[c*d : (c+1)*d]
}

func (t *LogReg) referenceLogits(w tensor.Vector, x tensor.Vector, out tensor.Vector) {
	for c := 0; c < t.train.Classes; c++ {
		r := t.referenceRow(w, c)
		out[c] = r[:len(r)-1].Dot(x) + r[len(r)-1]
	}
}

func (t *LogReg) referenceGrad(w tensor.Vector, b int, out tensor.Vector) {
	out.Zero()
	probs := tensor.NewVector(t.train.Classes)
	idx := referenceBatch(t.train, b, t.batch)
	inv := 1 / float64(len(idx))
	for _, i := range idx {
		x := t.train.X[i]
		t.referenceLogits(w, x, probs)
		tensor.Softmax(probs)
		for c := 0; c < t.train.Classes; c++ {
			coef := probs[c] * inv
			if c == t.train.Y[i] {
				coef -= inv
			}
			g := t.referenceRow(out, c)
			g[:len(g)-1].AXPY(coef, x)
			g[len(g)-1] += coef
		}
	}
	if t.L2 > 0 {
		out.AXPY(t.L2, w)
	}
	if t.ClipNorm > 0 {
		tensor.Clip(out, t.ClipNorm)
	}
}

func (t *LogReg) referenceLoss(w tensor.Vector) float64 {
	probs := tensor.NewVector(t.train.Classes)
	var sum float64
	for i := range t.train.X {
		t.referenceLogits(w, t.train.X[i], probs)
		tensor.Softmax(probs)
		p := probs[t.train.Y[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		sum += -math.Log(p)
	}
	reg := 0.5 * t.L2 * w.Dot(w)
	return sum/float64(len(t.train.X)) + reg
}

func (t *LogReg) referenceAccuracy(w tensor.Vector) float64 {
	probs := tensor.NewVector(t.eval.Classes)
	correct := 0
	for i := range t.eval.X {
		t.referenceLogits(w, t.eval.X[i], probs)
		if tensor.Argmax(probs) == t.eval.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(t.eval.X))
}

// refTask pairs a task with its reference numerics.
type refTask struct {
	Task
	refGrad     func(w tensor.Vector, b int, out tensor.Vector)
	refLoss     func(w tensor.Vector) float64
	refAccuracy func(w tensor.Vector) float64
}

func refMLP(m *MLP) refTask {
	return refTask{m, m.referenceGrad, m.referenceLoss, m.referenceAccuracy}
}

func refLogReg(l *LogReg) refTask {
	return refTask{l, l.referenceGrad, l.referenceLoss, l.referenceAccuracy}
}

// sameBits fails unless got and want agree on every element's bit pattern.
func sameBits(t *testing.T, what string, got, want tensor.Vector) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%g), reference %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// trajectory walks steps SGD steps from w with the task's own Grad, checking
// every gradient against the reference, then Loss and Accuracy at the end
// point. Minibatch numbers run on from first, so batches sweep the dataset
// and wrap its end wherever the batch size does not divide it.
func trajectory(t *testing.T, what string, rt refTask, w tensor.Vector, first, steps int, lr float64) {
	t.Helper()
	got, want := tensor.NewVector(rt.Dim()), tensor.NewVector(rt.Dim())
	for b := first; b < first+steps; b++ {
		// Stale garbage in out must not leak into the gradient.
		for i := range got {
			got[i], want[i] = math.NaN(), math.Inf(-1)
		}
		rt.Grad(w, b, got)
		rt.refGrad(w, b, want)
		sameBits(t, fmt.Sprintf("%s: gradient of minibatch %d", what, b), got, want)
		w.AXPY(-lr, got)
	}
	if g, r := rt.Loss(w), rt.refLoss(w); math.Float64bits(g) != math.Float64bits(r) {
		t.Fatalf("%s: Loss = %x (%g), reference %x (%g)", what, math.Float64bits(g), g, math.Float64bits(r), r)
	}
	if g, r := rt.Accuracy(w), rt.refAccuracy(w); math.Float64bits(g) != math.Float64bits(r) {
		t.Fatalf("%s: Accuracy = %g, reference %g", what, g, r)
	}
}

// TestGradMatchesReferenceBitForBit is the wall around the batched numerics:
// over random shapes that are not multiples of any kernel tile, batch sizes
// that wrap the dataset end, with and without clipping and ridge, along SGD
// trajectories long and steep enough to saturate tanh and clip coordinates,
// every gradient element, Loss and Accuracy must carry the bit pattern the
// per-sample reference computes.
func TestGradMatchesReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trials, steps := 24, 240
	if testing.Short() {
		trials, steps = 8, 120
	}
	var saturated, clipped, wrapped int
	for trial := 0; trial < trials; trial++ {
		d, h, c := 1+rng.Intn(19), 1+rng.Intn(27), 2+rng.Intn(10)
		n := 45 + rng.Intn(60)
		ds, err := data.SyntheticClassification(rng.Int63(), n, d, c, 0.2+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		tr, ev, err := ds.Split(0.8)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 3, 32, tr.Len()} {
			if batch != tr.Len() && tr.Len()%batch != 0 {
				wrapped++
			}
			// Both settings of each knob, paired so that two trajectories
			// per shape cover them: a steep clipped one and a gentle raw one.
			for _, knobs := range []struct{ clip, l2, lr float64 }{{0.02 + 0.1*rng.Float64(), 0, 4}, {0, 1e-2, 0.4}} {
				what := fmt.Sprintf("d=%d h=%d c=%d n=%d batch=%d clip=%.3g", d, h, c, tr.Len(), batch, knobs.clip)
				m, err := NewMLP(tr, ev, h, batch, rng.Int63())
				if err != nil {
					t.Fatal(err)
				}
				m.ClipNorm = knobs.clip
				w := m.InitWeights()
				trajectory(t, "mlp "+what, refMLP(m), w, rng.Intn(50), steps, knobs.lr)
				hid, probs := tensor.NewVector(h), tensor.NewVector(c)
				for _, x := range tr.X {
					m.forward(w, x, hid, probs)
					for _, v := range hid {
						if math.Abs(v) == 1 {
							saturated++
						}
					}
				}
				g := tensor.NewVector(m.Dim())
				m.Grad(w, 0, g)
				for _, v := range g {
					if knobs.clip > 0 && math.Abs(v) == knobs.clip {
						clipped++
					}
				}

				l, err := NewLogReg(tr, ev, batch)
				if err != nil {
					t.Fatal(err)
				}
				l.ClipNorm, l.L2 = knobs.clip, knobs.l2
				trajectory(t, "logreg "+what, refLogReg(l), l.InitWeights(), rng.Intn(50), steps, knobs.lr)
			}
		}
	}
	// The coverage the comment above promises must actually have happened.
	if saturated == 0 || clipped == 0 || wrapped == 0 {
		t.Fatalf("trajectories saturated %d tanh units, clipped %d coordinates, wrapped %d batch sizes; want all > 0",
			saturated, clipped, wrapped)
	}
}

// TestGradSumsFromPositiveZero pins the start of every accumulation: a sum
// whose products are all -0 is +0 when it starts at +0 and adds (what Dot and
// AXPY into a zeroed vector do), but -0 if it starts at its first product.
// Zero features under negative weights make every first-layer product -0
// (seen through tanh(-0) = -0 in the hidden activations), and zero features
// under negative hidden errors make every W1 gradient term -0.
func TestGradSumsFromPositiveZero(t *testing.T) {
	ds, err := data.SyntheticClassification(5, 40, 6, 3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	tr, ev, err := ds.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range tr.X {
		x.Zero()
	}
	for _, batch := range []int{1, 5} {
		m, err := NewMLP(tr, ev, 5, batch, 9)
		if err != nil {
			t.Fatal(err)
		}
		m.ClipNorm = 0
		w := m.InitWeights()
		w1, b1, _, _ := m.views(w)
		for i := range w1 {
			w1[i] = -math.Abs(w1[i])
		}
		for j := range b1 {
			b1[j] = math.Copysign(0, -1) // +0 + -0 = +0, but -0 + -0 = -0
		}
		hid, probs := tensor.NewVector(5), tensor.NewVector(3)
		m.forward(w, tr.X[0], hid, probs)
		for j, v := range hid {
			if math.Float64bits(v) != 0 {
				t.Fatalf("batch %d: hid[%d] = %x, want +0: the row sum did not start at +0", batch, j, math.Float64bits(v))
			}
		}
		got, want := tensor.NewVector(m.Dim()), tensor.NewVector(m.Dim())
		negative := 0
		for b := 0; b < 8; b++ {
			m.Grad(w, b, got)
			m.referenceGrad(w, b, want)
			sameBits(t, fmt.Sprintf("mlp batch %d minibatch %d", batch, b), got, want)
			_, gb1, _, _ := m.views(got)
			for _, v := range gb1 {
				if v < 0 {
					negative++ // this unit's W1 gradient terms were all -0
				}
			}
		}
		if negative == 0 {
			t.Fatalf("batch %d: no negative hidden error, the -0 products were never formed", batch)
		}
		g1, _, _, _ := m.views(got)
		for i, v := range g1 {
			if math.Float64bits(v) != 0 {
				t.Fatalf("batch %d: W1 gradient %d = %x, want +0", batch, i, math.Float64bits(v))
			}
		}

		l, err := NewLogReg(tr, ev, batch)
		if err != nil {
			t.Fatal(err)
		}
		l.ClipNorm, l.L2 = 0, 0
		lw := l.InitWeights()
		for i := range lw {
			lw[i] = -0.25
		}
		trajectory(t, fmt.Sprintf("logreg batch %d", batch), refLogReg(l), lw, 0, 8, 0)
	}
}

// TestGradConcurrentCallsMatchSerial exercises the Task contract the live
// runtime relies on: concurrent Grad calls with distinct out vectors, each
// drawing its own scratch, give the serial results. Run under -race in CI.
func TestGradConcurrentCallsMatchSerial(t *testing.T) {
	m, err := DefaultMLPTask(3)
	if err != nil {
		t.Fatal(err)
	}
	l, err := DefaultTask(3)
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 8, 20
	for _, task := range []Task{m, l} {
		w := task.InitWeights()
		for i := range w {
			w[i] += 0.01 * float64(i%7)
		}
		serial := make([]tensor.Vector, callers*rounds)
		for b := range serial {
			serial[b] = tensor.NewVector(task.Dim())
			task.Grad(w, b, serial[b])
		}
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				out := tensor.NewVector(task.Dim())
				for r := 0; r < rounds; r++ {
					b := r*callers + c
					task.Grad(w, b, out)
					for i := range out {
						if math.Float64bits(out[i]) != math.Float64bits(serial[b][i]) {
							t.Errorf("%T caller %d minibatch %d: element %d differs from the serial gradient", task, c, b, i)
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
	}
}

// TestGradSteadyStateAllocFree pins what the live worker loop and the
// co-simulated trainers pay per retired minibatch: nothing on the heap.
func TestGradSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	m, err := DefaultMLPTask(7)
	if err != nil {
		t.Fatal(err)
	}
	l, err := DefaultTask(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []Task{m, l} {
		w, out := task.InitWeights(), tensor.NewVector(task.Dim())
		b := 0
		if allocs := testing.AllocsPerRun(200, func() { task.Grad(w, b, out); b++ }); allocs != 0 {
			t.Errorf("%T.Grad allocates %.2f times per call in steady state, want 0", task, allocs)
		}
	}
}
