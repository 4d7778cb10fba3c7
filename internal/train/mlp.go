package train

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"hetpipe/internal/data"
	"hetpipe/internal/tensor"
)

// MLP is a one-hidden-layer neural network with tanh activations and softmax
// cross-entropy loss — the non-convex extension of the convergence study.
// The paper's Theorem 1 covers only convex objectives; the MLP task lets the
// experiments probe staleness effects beyond the theorem's assumptions, in
// the regime where real DNN training lives.
//
// Parameter layout: [W1 (hidden x dim) | b1 (hidden) | W2 (classes x hidden)
// | b2 (classes)].
type MLP struct {
	train  *data.Dataset
	eval   *data.Dataset
	hidden int
	batch  int
	// ClipNorm bounds each gradient coordinate; zero disables.
	ClipNorm float64
	seed     int64
	// scratch recycles Grad's per-call work vector (see getScratch).
	scratch sync.Pool
}

// NewMLP builds the task.
func NewMLP(train, eval *data.Dataset, hidden, batch int, seed int64) (*MLP, error) {
	if train.Classes != eval.Classes || train.Dim != eval.Dim {
		return nil, fmt.Errorf("train: mismatched datasets")
	}
	if hidden < 1 {
		return nil, fmt.Errorf("train: need at least one hidden unit")
	}
	if batch < 1 || batch > train.Len() {
		return nil, fmt.Errorf("train: bad batch size %d", batch)
	}
	return &MLP{train: train, eval: eval, hidden: hidden, batch: batch, ClipNorm: 5, seed: seed}, nil
}

// Dim implements Task.
func (t *MLP) Dim() int {
	d, h, c := t.train.Dim, t.hidden, t.train.Classes
	return h*d + h + c*h + c
}

// InitWeights implements Task: small deterministic Gaussian init (symmetric
// zero init would trap the hidden layer).
func (t *MLP) InitWeights() tensor.Vector {
	rng := rand.New(rand.NewSource(t.seed))
	w := tensor.NewVector(t.Dim())
	scale := 1 / math.Sqrt(float64(t.train.Dim))
	for i := range w {
		w[i] = rng.NormFloat64() * scale
	}
	return w
}

// views splits the flat parameter vector into layer views.
func (t *MLP) views(w tensor.Vector) (w1, b1, w2, b2 tensor.Vector) {
	d, h, c := t.train.Dim, t.hidden, t.train.Classes
	o := 0
	w1 = w[o : o+h*d]
	o += h * d
	b1 = w[o : o+h]
	o += h
	w2 = w[o : o+c*h]
	o += c * h
	b2 = w[o : o+c]
	return
}

// forward computes hidden activations and class probabilities for sample x.
func (t *MLP) forward(w tensor.Vector, x tensor.Vector, hid, probs tensor.Vector) {
	w1, b1, w2, b2 := t.views(w)
	tensor.MatVec(hid, w1, t.train.Dim, x)
	for j, z := range hid {
		hid[j] = math.Tanh(z + b1[j])
	}
	tensor.MatVec(probs, w2, t.hidden, hid)
	for k := range probs {
		probs[k] += b2[k]
	}
	tensor.Softmax(probs)
}

// Grad implements Task via manual backpropagation, in two phases over each
// run of consecutive samples (the whole minibatch, unless it wraps the dataset
// end). The first sends every sample forward and leaves, per sample, its
// hidden activations, its output-layer error d2 = probs*inv - onehot*inv and
// the error fed back through W2, (probs - onehot)*inv, in scratch. The second
// works on the run as a block (tensor.AddOuter): the hidden-layer error
// dj = (sum_k back_k*W2[k,.]) * (1 - hid^2) for all samples at once, then
// W2's gradient from d2 and hid and W1's from dj and the run's rows of the
// dataset slab. Every gradient element is still the sum of its per-sample
// terms in sample order from +0.
func (t *MLP) Grad(w tensor.Vector, b int, out tensor.Vector) {
	out.Zero()
	d, h, c, n := t.train.Dim, t.hidden, t.train.Classes, t.batch
	_, _, w2, _ := t.views(w)
	g1, gb1, g2, gb2 := t.views(out)
	sc := getScratch(&t.scratch, 2*n*(h+c))
	inv := 1 / float64(n)
	for s := 0; s < n; {
		xs, ys := t.train.Run(b*n+s, n-s)
		m := len(ys)
		hid, dj := (*sc)[:m*h], (*sc)[n*h:][:m*h]
		d2 := (*sc)[2*n*h:][:m*c]       // sample-major, like hid and dj
		back := (*sc)[2*n*h+n*c:][:c*m] // class-major: AddOuter sums over classes
		for i, y := range ys {
			probs := d2[i*c:][:c]
			t.forward(w, xs[i*d:][:d], hid[i*h:][:h], probs)
			// dL/dlogits = probs - onehot(y).
			for k, p := range probs {
				delta, fed := p*inv, p
				if k == y {
					delta -= inv
					fed -= 1
				}
				probs[k] = delta
				gb2[k] += delta
				back[k*m+i] = fed * inv
			}
		}
		// Backprop into the hidden layer, dL/dhid = W2^T (probs-onehot), then
		// through tanh: (1 - hid^2).
		dj.Zero()
		tensor.AddOuter(dj, h, back, m, w2, h)
		for i := 0; i < m; i++ {
			hs, ds := hid[i*h:][:h], dj[i*h:][:h]
			for j, hv := range hs {
				ds[j] *= 1 - hv*hv
				gb1[j] += ds[j]
			}
		}
		tensor.AddOuter(g2, h, d2, c, hid, h)
		tensor.AddOuter(g1, d, dj, h, xs, d)
		s += m
	}
	t.scratch.Put(sc)
	if t.ClipNorm > 0 {
		tensor.Clip(out, t.ClipNorm)
	}
}

// Loss implements Task.
func (t *MLP) Loss(w tensor.Vector) float64 {
	hid := tensor.NewVector(t.hidden)
	probs := tensor.NewVector(t.train.Classes)
	var sum float64
	for i := range t.train.X {
		t.forward(w, t.train.X[i], hid, probs)
		p := probs[t.train.Y[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		sum += -math.Log(p)
	}
	return sum / float64(len(t.train.X))
}

// Accuracy implements Task over the held-out set.
func (t *MLP) Accuracy(w tensor.Vector) float64 {
	hid := tensor.NewVector(t.hidden)
	probs := tensor.NewVector(t.eval.Classes)
	correct := 0
	for i := range t.eval.X {
		t.forward(w, t.eval.X[i], hid, probs)
		if tensor.Argmax(probs) == t.eval.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(t.eval.X))
}

// DefaultMLPTask builds the standard non-convex study task: 2000 samples,
// 4 classes, 16 dimensions, 24 hidden units, batch 32, deterministic seed.
func DefaultMLPTask(seed int64) (*MLP, error) {
	ds, err := data.SyntheticClassification(seed, 2000, 16, 4, 0.45)
	if err != nil {
		return nil, err
	}
	tr, ev, err := ds.Split(0.8)
	if err != nil {
		return nil, err
	}
	return NewMLP(tr, ev, 24, 32, seed)
}
