// Package train runs real numeric SGD under the synchronization schedules of
// the paper: WSP (pipelined virtual workers with waves and the clock distance
// bound D) and BSP over all-reduce (the Horovod baseline). The WSP side keeps
// no clock. Worker is one virtual worker's timing-free program and Numerics a
// whole run's timing-free state; when anything happens is decided elsewhere —
// by core's co-simulation, whose push and completion events advance a
// Numerics (Observe) to give the accuracy-versus-time curves of Figures 5
// and 6, by the live runtime's real servers (internal/cluster steps Workers
// itself), or by nothing at all (RunWSP, for callers that want the weights).
// RunBSP times the baseline by the Section 7 model's iteration time.
//
// The default task is multinomial logistic regression on a synthetic
// Gaussian-mixture dataset: convex with bounded (clipped) gradients, exactly
// the setting of the paper's convergence proof (Assumptions 1 and 2).
//
// A gradient step — what every trainer here and the live runtime
// (internal/cluster) pay once per retired minibatch — is batched: each task
// scores the minibatch's samples into scratch it owns, then accumulates the
// weight gradients as outer products over the whole minibatch through the
// blocked kernels of internal/tensor, reading the samples straight from the
// dataset slab. Every sum keeps the order the per-sample form had, so the
// result is the same to the last bit (reference_test.go holds that form as
// the oracle), and a steady-state Grad allocates nothing.
package train

import (
	"fmt"
	"math"
	"sync"

	"hetpipe/internal/data"
	"hetpipe/internal/tensor"
)

// Task is a differentiable training objective over an indexed minibatch
// stream. Implementations must be safe for concurrent Grad calls with
// distinct out vectors.
type Task interface {
	// Dim is the parameter vector length.
	Dim() int
	// InitWeights returns the starting parameter vector w0.
	InitWeights() tensor.Vector
	// Grad writes the minibatch-b gradient at w into out (len Dim).
	Grad(w tensor.Vector, b int, out tensor.Vector)
	// Loss evaluates the mean training loss at w.
	Loss(w tensor.Vector) float64
	// Accuracy evaluates held-out top-1 accuracy at w, in [0,1].
	Accuracy(w tensor.Vector) float64
}

// LogReg is L2-regularized multinomial logistic regression.
// Parameters are laid out as classes x (dim+1) rows (weights then bias).
type LogReg struct {
	train *data.Dataset
	eval  *data.Dataset
	batch int
	// L2 is the ridge coefficient.
	L2 float64
	// ClipNorm bounds each coordinate of the gradient (Assumption 1's
	// bounded subgradients); zero disables clipping.
	ClipNorm float64
	// scratch recycles Grad's per-call work vector (see getScratch).
	scratch sync.Pool
}

// getScratch takes a length-n work vector from a task's pool, or makes the
// pool's first. Every call of one task asks for the same n; the caller Puts
// the vector back when done, which is what keeps a steady-state Grad
// allocation-free while concurrent Grads each hold their own.
func getScratch(pool *sync.Pool, n int) *tensor.Vector {
	if v, ok := pool.Get().(*tensor.Vector); ok {
		return v
	}
	v := tensor.NewVector(n)
	return &v
}

// NewLogReg builds the task over a train/eval split.
func NewLogReg(train, eval *data.Dataset, batch int) (*LogReg, error) {
	if train.Classes != eval.Classes || train.Dim != eval.Dim {
		return nil, fmt.Errorf("train: mismatched datasets")
	}
	if batch < 1 || batch > train.Len() {
		return nil, fmt.Errorf("train: bad batch size %d for %d samples", batch, train.Len())
	}
	return &LogReg{train: train, eval: eval, batch: batch, L2: 1e-4, ClipNorm: 5}, nil
}

// Dim implements Task.
func (t *LogReg) Dim() int { return t.train.Classes * (t.train.Dim + 1) }

// InitWeights implements Task: zeros (a deterministic, symmetric start).
func (t *LogReg) InitWeights() tensor.Vector { return tensor.NewVector(t.Dim()) }

// logits computes class scores for sample x into out.
func (t *LogReg) logits(w tensor.Vector, x tensor.Vector, out tensor.Vector) {
	d := t.train.Dim
	tensor.MatVec(out, w, d+1, x)
	for c := range out {
		out[c] += w[c*(d+1)+d]
	}
}

// Grad implements Task: softmax cross-entropy gradient over minibatch b. Each
// run of consecutive samples is scored into per-sample coefficient rows
// (probs*inv - onehot*inv), whose outer products with the run's rows of the
// dataset slab are then accumulated in one batched pass (tensor.AddOuter);
// every gradient element is still the sum of its per-sample terms in sample
// order from +0.
func (t *LogReg) Grad(w tensor.Vector, b int, out tensor.Vector) {
	out.Zero()
	d, k, n := t.train.Dim, t.train.Classes, t.batch
	sc := getScratch(&t.scratch, n*k)
	inv := 1 / float64(n)
	for s := 0; s < n; {
		xs, ys := t.train.Run(b*n+s, n-s)
		coefs := (*sc)[s*k:][:len(ys)*k]
		for i, y := range ys {
			coef := coefs[i*k:][:k]
			t.logits(w, xs[i*d:][:d], coef)
			tensor.Softmax(coef)
			for c, p := range coef {
				v := p * inv
				if c == y {
					v -= inv
				}
				coef[c] = v
				out[c*(d+1)+d] += v
			}
		}
		tensor.AddOuter(out, d+1, coefs, k, xs, d)
		s += len(ys)
	}
	t.scratch.Put(sc)
	if t.L2 > 0 {
		out.AXPY(t.L2, w)
	}
	if t.ClipNorm > 0 {
		tensor.Clip(out, t.ClipNorm)
	}
}

// Loss implements Task: mean cross-entropy over the training set plus the
// ridge term.
func (t *LogReg) Loss(w tensor.Vector) float64 {
	probs := tensor.NewVector(t.train.Classes)
	var sum float64
	for i := range t.train.X {
		t.logits(w, t.train.X[i], probs)
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

// Accuracy implements Task over the held-out set.
func (t *LogReg) Accuracy(w tensor.Vector) float64 {
	probs := tensor.NewVector(t.eval.Classes)
	correct := 0
	for i := range t.eval.X {
		t.logits(w, t.eval.X[i], probs)
		if tensor.Argmax(probs) == t.eval.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(t.eval.X))
}

// DefaultTask builds the standard convergence-study task: 6000 samples,
// 10 classes, 40 dimensions, moderate noise, batch 32, deterministic seed.
func DefaultTask(seed int64) (*LogReg, error) {
	ds, err := data.SyntheticClassification(seed, 6000, 40, 10, 0.35)
	if err != nil {
		return nil, err
	}
	tr, ev, err := ds.Split(0.8)
	if err != nil {
		return nil, err
	}
	return NewLogReg(tr, ev, 32)
}

// tasks is the catalog of live-training tasks: each name's standard study
// task, built from a seed.
var tasks = map[string]func(seed int64) (Task, error){
	"logreg": func(seed int64) (Task, error) { return DefaultTask(seed) },
	"mlp":    func(seed int64) (Task, error) { return DefaultMLPTask(seed) },
}

// TaskNamed returns the constructor of the named task's standard study task
// ("logreg", convex, or "mlp", non-convex), or false for any other name.
func TaskNamed(name string) (func(seed int64) (Task, error), bool) {
	build, ok := tasks[name]
	return build, ok
}
