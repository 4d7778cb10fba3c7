package experiment

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"

	"hetpipe/internal/core"
	"hetpipe/internal/data"
	"hetpipe/internal/fault"
	"hetpipe/internal/model"
	"hetpipe/internal/obs"
	"hetpipe/internal/tensor"
	"hetpipe/internal/train"
	"hetpipe/internal/wsp"
)

func init() {
	register("figure5", "Figure 5", "ResNet-152 accuracy over time (Figure 5): Horovod vs HetPipe 12/16 GPUs, D=0", figure5)
	register("figure6", "Figure 6", "VGG-19 accuracy over time (Figure 6): Horovod vs HetPipe D=0/4/32, ED-local", figure6)
	register("syncoverhead", "Section 8.4", "Synchronization overhead vs D (Section 8.4), VGG-19 ED-local", syncOverhead)
	register("theorem1", "Theorem 1", "WSP convergence: measured regret vs Theorem 1 bound", theorem1)
	register("traffic", "Section 8.3", "Cross-node traffic per minibatch (Section 8.3)", traffic)
}

// Convergence-study constants: the synthetic task's analog of the paper's
// top-1 targets (74% ResNet-152, 67% VGG-19 on ImageNet). The task is sized
// so that reaching the target takes thousands of minibatches per worker —
// long enough for staleness and waiting dynamics to shape the outcome, as
// they do over the paper's multi-day ImageNet runs.
const (
	// targetLoss plays the role of the paper's top-1 targets: the task's
	// accuracy saturates early (softmax argmax is scale-invariant), so the
	// training loss is the sharper convergence criterion; it descends
	// smoothly across the whole run and is sensitive to staleness.
	targetLoss     = 0.50
	convergeLR     = 0.01
	convergeSeed   = 42
	maxMBPerWorker = 12000
	evalEvery      = 128
)

// convergenceTask builds the shared objective: a 12-class, 48-dimensional
// Gaussian mixture with enough noise that the decision boundary takes many
// epochs to sharpen.
func convergenceTask() (*train.LogReg, error) {
	ds, err := data.SyntheticClassification(convergeSeed, 12000, 48, 12, 0.34)
	if err != nil {
		return nil, err
	}
	tr, ev, err := ds.Split(0.8)
	if err != nil {
		return nil, err
	}
	return train.NewLogReg(tr, ev, batchSize)
}

// deployLocal deploys HetPipe on the paper cluster over the given VW specs
// (comma-separated), ED-local placement, the planner's own Nm.
func deployLocal(m *model.Model, specs string, d int) (*core.Deployment, error) {
	return core.Spec{Model: m.Name, Specs: specs, D: d, Local: true}.Resolve()
}

// trainOn runs cfg's training on dep, timed by the deployment's co-simulation
// under plan (nil = fault-free): dep supplies N, Nm and D, the simulator's
// push and completion events drive the numerics, and the run is cancelled at
// the event that meets cfg's target. Waiting, idle and pulls are the
// co-simulation's own, read where it stopped. When ctx is done the run is
// the caller's to discard: trainOn returns ctx.Err() and no statistics.
func trainOn(ctx context.Context, dep *core.Deployment, cfg train.WSPConfig, plan *fault.Plan) (*train.RunStats, error) {
	cfg.Workers, cfg.SLocal, cfg.D = len(dep.VWs), dep.SLocal(), dep.D
	// The co-simulation ends every worker on a wave boundary; give the
	// numerics the same budget.
	cfg.MaxMinibatches = (cfg.MaxMinibatches + dep.Nm - 1) / dep.Nm * dep.Nm
	num, err := train.NewNumerics(cfg)
	if err != nil {
		return nil, err
	}
	run, reached := context.WithCancel(ctx)
	defer reached()
	mr, err := dep.Simulate(run, core.SimOptions{Minibatches: cfg.MaxMinibatches, Faults: plan, Observer: func(e obs.Event) {
		if num.Observe(e) {
			reached()
		}
	}})
	// A cancelled Simulate still returns its counted result: report it only
	// when the cancel was the target's, not the caller's.
	if mr == nil || ctx.Err() != nil {
		return nil, cmp.Or(ctx.Err(), err)
	}
	st := num.Finish()
	st.Waiting, st.Idle, st.Pulls = mr.Waiting, mr.Idle, mr.Pulls
	return st, nil
}

// hetpipeRun is one HetPipe line of the convergence figures.
func hetpipeRun(ctx context.Context, m *model.Model, specs string, d int) (*train.RunStats, error) {
	dep, err := deployLocal(m, specs, d)
	if err != nil {
		return nil, err
	}
	task, err := convergenceTask()
	if err != nil {
		return nil, err
	}
	return trainOn(ctx, dep, train.WSPConfig{
		Task: task, LR: convergeLR, MaxMinibatches: maxMBPerWorker,
		EvalEvery: evalEvery, TargetLoss: targetLoss,
	}, nil)
}

// horovodRun builds and runs the numeric Horovod baseline for a model.
func horovodRun(ctx context.Context, m *model.Model) (*train.RunStats, int, error) {
	s, err := core.Spec{Model: m.Name}.System()
	if err != nil {
		return nil, 0, err
	}
	hr, err := s.Horovod(nil)
	if err != nil {
		return nil, 0, err
	}
	task, err := convergenceTask()
	if err != nil {
		return nil, 0, err
	}
	// Horovod averages N gradients per step (effective batch 32N); scale
	// the learning rate linearly with N, the standard large-batch practice
	// (Goyal et al., the paper's reference [13] for LR tuning) — this keeps
	// the baseline's per-sample statistical efficiency on par with
	// HetPipe's sequential small-batch updates.
	n := len(hr.Periods)
	stats, err := train.RunBSP(ctx, train.BSPConfig{
		Task: task, Periods: hr.Periods, AllReduceTime: hr.AllReduceTime,
		LR:            convergeLR * float64(n),
		MaxIterations: maxMBPerWorker, EvalEvery: evalEvery / 8,
		TargetLoss: targetLoss,
	})
	return stats, n, err
}

func describeRun(label string, st *train.RunStats, baseline float64) string {
	t := "did not reach target"
	if st.ReachedTarget {
		t = fmt.Sprintf("target in %7.1fs", st.TimeToTarget)
		if baseline > 0 && st.TimeToTarget > 0 {
			t += fmt.Sprintf(" (%+.0f%% vs Horovod)", 100*(st.TimeToTarget-baseline)/baseline)
		}
	}
	return fmt.Sprintf("%-18s %s  loss=%.3f acc=%.3f  mb=%d waits=%.0fs idle=%.0fs pulls=%d",
		label, t, st.FinalLoss, st.FinalAccuracy, st.Minibatches, st.Waiting, st.Idle, st.Pulls)
}

// figure5 reproduces the ResNet-152 convergence comparison: Horovod on 12
// GPUs (the G parts cannot hold the model) versus HetPipe on the same 12
// GPUs and on all 16, D=0.
func figure5(ctx context.Context, r *Report) error {
	m := model.ResNet152()
	hv, workers, err := horovodRun(ctx, m)
	if err != nil {
		return err
	}
	r.addf("%s", describeRun(fmt.Sprintf("Horovod (%d GPUs)", workers), hv, 0))
	base := hv.TimeToTarget
	for _, c := range []struct {
		label string
		specs string
	}{
		{"HetPipe 12 GPUs", "VRQ,VRQ,VRQ,VRQ"},
		{"HetPipe 16 GPUs", "VRQG,VRQG,VRQG,VRQG"},
	} {
		st, err := hetpipeRun(ctx, m, c.specs, 0)
		if err != nil {
			return err
		}
		r.addf("%s", describeRun(c.label, st, base))
	}
	r.notef("paper: HetPipe-12 converges 35%% faster and HetPipe-16 39%% faster than Horovod-12")
	r.notef("convergence target is training loss <= %.2f, the task-relative analog of the paper's 74%% top-1", targetLoss)
	return nil
}

// figure6 reproduces the VGG-19 convergence comparison on 16 GPUs with
// ED-local: Horovod versus HetPipe at D = 0, 4, and 32.
func figure6(ctx context.Context, r *Report) error {
	m := model.VGG19()
	hv, workers, err := horovodRun(ctx, m)
	if err != nil {
		return err
	}
	r.addf("%s", describeRun(fmt.Sprintf("Horovod (%d GPUs)", workers), hv, 0))
	base := hv.TimeToTarget
	for _, d := range []int{0, 4, 32} {
		st, err := hetpipeRun(ctx, m, "VRGQ,VRGQ,VRGQ,VRGQ", d)
		if err != nil {
			return err
		}
		r.addf("%s", describeRun(fmt.Sprintf("HetPipe D=%d", d), st, base))
	}
	r.notef("paper: D=0 converges 29%% faster than Horovod, D=4 49%% faster; D=32 degrades 4.7%% vs D=4")
	return nil
}

// syncOverhead reproduces the Section 8.4 analysis: waiting time shrinks as
// D grows, and pipelining hides most of the wait (idle << waiting).
func syncOverhead(ctx context.Context, r *Report) error {
	m := model.VGG19()
	var waitD0 float64
	for _, d := range []int{0, 4, 32} {
		dep, err := deployLocal(m, "VRGQ,VRGQ,VRGQ,VRGQ", d)
		if err != nil {
			return err
		}
		// A fixed budget: compare equal work.
		st, err := dep.Simulate(ctx, core.SimOptions{Minibatches: 2000})
		if err != nil {
			return err
		}
		line := fmt.Sprintf("D=%-3d waiting=%7.1fs idle=%6.1fs (%.0f%% of waiting) pulls=%d pushes=%d",
			d, st.Waiting, st.Idle, safePct(st.Idle, st.Waiting), st.Pulls, st.Pushes)
		if d == 0 {
			waitD0 = st.Waiting
		} else if waitD0 > 0 {
			line += fmt.Sprintf("  waiting=%.0f%% of D=0", 100*st.Waiting/waitD0)
		}
		r.addf("%s", line)
	}
	r.notef("paper: average waiting time at D=4 is 62%% of D=0, and idle time is 18%% of waiting")
	return nil
}

func safePct(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return 100 * num / den
}

// sigma is the Theorem 1 step-size constant: eta_t = sigma/sqrt(t) with
// sigma = M / (L*sqrt((2 s_g + s_l) N)), s_l = slocal+1 the wave size.
func sigma(m, l float64, sg, sl, n int) float64 {
	return m / (l * math.Sqrt(float64((2*sg+sl)*n)))
}

// regretBound is the Theorem 1 regret bound: R[W] <= 4*M*L*sqrt((2 s_g + s_l)N/T).
func regretBound(m, l float64, sg, sl, n, t int) float64 {
	return 4 * m * l * math.Sqrt(float64((2*sg+sl)*n)/float64(t))
}

// regretDim is the dimension of Theorem 1's problem.
const regretDim = 12

// regretSetup is one Theorem 1 configuration: N workers of mb minibatches
// each under (slocal, D), T = N*mb updates of a seeded problem.
type regretSetup struct {
	workers, slocal, d, mb int
	seed                   int64
}

func (s regretSetup) params() wsp.Params {
	return wsp.Params{SLocal: s.slocal, D: s.d, Workers: s.workers}
}

func (s regretSetup) updates() int { return s.workers * s.mb }

// regretTask is Theorem 1's problem as a train.Task: absolute-loss linear
// regression f_b(w) = |a_b . w - y_b| with unit-norm a_b, so subgradients are
// bounded by L = 1 (Assumption 1) and the objective is convex but not
// smooth — the weakest setting the theorem covers. Minibatch b is update
// b+1 of T: Grad grades it at the weights it trains on (f_b and the distance
// to w*, into b's own slots) and returns the subgradient scaled by the
// theorem's step eta_{b+1}, so a run at LR 1 takes exactly the theorem's
// steps on whatever schedule runs it.
type regretTask struct {
	a     []tensor.Vector
	y     []float64
	wstar tensor.Vector
	sigma float64
	// loss[b] and dist[b] are minibatch b's f_b(w) and sqrt(2*|w - w*|^2).
	loss, dist []float64
}

// newRegretTask draws the setup's seeded problem, approximates w* and fixes
// sigma with the provisional M = 1: the bound is recomputed with the
// observed M afterwards (the theorem holds for any valid M >= the largest
// distance, and sigma only scales the trajectory). It returns ctx.Err() when
// ctx ends before w* is found.
func newRegretTask(ctx context.Context, s regretSetup) (*regretTask, error) {
	rng := rand.New(rand.NewSource(s.seed))
	truth := tensor.NewVector(regretDim)
	for i := range truth {
		truth[i] = rng.NormFloat64() * 0.5
	}
	t := s.updates()
	p := &regretTask{loss: make([]float64, t), dist: make([]float64, t)}
	for i := 0; i < t; i++ {
		a := tensor.NewVector(regretDim)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		if n := a.Norm2(); n > 0 {
			a.Scale(1 / n)
		}
		p.a = append(p.a, a)
		p.y = append(p.y, a.Dot(truth)+0.05*rng.NormFloat64())
	}
	var err error
	if p.wstar, err = p.minimize(ctx); err != nil {
		return nil, err
	}
	p.sigma = sigma(1, 1, s.params().SGlobal(), s.params().WaveSize(), s.workers)
	return p, nil
}

func (p *regretTask) lossAt(b int, w tensor.Vector) float64 {
	return math.Abs(p.a[b].Dot(w) - p.y[b])
}

// subgrad writes the subgradient of f_b at w into out; its norm is <= 1.
func (p *regretTask) subgrad(b int, w, out tensor.Vector) {
	copy(out, p.a[b])
	if p.a[b].Dot(w)-p.y[b] < 0 {
		out.Scale(-1)
	}
}

// minimize approximates w* by 300 full subgradient passes with a decaying
// step — cheap and adequate for the small problems used here. It checks ctx
// once per pass.
func (p *regretTask) minimize(ctx context.Context) (tensor.Vector, error) {
	w := p.InitWeights()
	g := p.InitWeights()
	sum := p.InitWeights()
	for pass := 1; pass <= 300; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sum.Zero()
		for b := range p.a {
			p.subgrad(b, w, g)
			sum.AddInPlace(g)
		}
		w.AXPY(-0.5/float64(len(p.a))/math.Sqrt(float64(pass)), sum)
	}
	return w, nil
}

// Dim implements train.Task.
func (p *regretTask) Dim() int { return regretDim }

// InitWeights implements train.Task: zeros.
func (p *regretTask) InitWeights() tensor.Vector { return tensor.NewVector(p.Dim()) }

// Grad implements train.Task: it grades minibatch b at w and writes
// eta_{b+1} times f_b's subgradient into out.
func (p *regretTask) Grad(w tensor.Vector, b int, out tensor.Vector) {
	p.loss[b] = p.lossAt(b, w)
	p.dist[b] = math.Sqrt(2 * w.DistanceSquared(p.wstar))
	p.subgrad(b, w, out)
	out.Scale(p.sigma / math.Sqrt(float64(b+1)))
}

// Loss implements train.Task: f(w) = (1/T) sum_b f_b(w).
func (p *regretTask) Loss(w tensor.Vector) float64 {
	var sum float64
	for b := range p.a {
		sum += p.lossAt(b, w)
	}
	return sum / float64(len(p.a))
}

// Accuracy implements train.Task: a regression task has none.
func (p *regretTask) Accuracy(tensor.Vector) float64 { return 0 }

// run trains task — the setup's regretTask, or a test's wrapper of it —
// through the WSP worker program every backend runs, at LR 1 so the task's
// steps are the theorem's, evaluating once at the end.
func (s regretSetup) run(ctx context.Context, task train.Task) (*train.RunStats, error) {
	return train.RunWSP(ctx, train.WSPConfig{
		Task: task, Workers: s.workers, SLocal: s.slocal, D: s.d,
		LR: 1, MaxMinibatches: s.mb, EvalEvery: s.updates(),
	})
}

// measure runs the setup and returns the regret (1/T) sum_b f_b(w~_b) - f(w*),
// the bound at the largest observed distance M (L = 1), and the run.
func (s regretSetup) measure(ctx context.Context) (regret, bound float64, st *train.RunStats, err error) {
	p, err := newRegretTask(ctx, s)
	if err != nil {
		return 0, 0, nil, err
	}
	if st, err = s.run(ctx, p); err != nil {
		return 0, 0, nil, err
	}
	var sum float64
	m := 1e-9
	for b, l := range p.loss {
		sum += l
		m = max(m, p.dist[b])
	}
	t := s.updates()
	regret = sum/float64(t) - p.Loss(p.wstar)
	bound = regretBound(m, 1, s.params().SGlobal(), s.params().WaveSize(), s.workers, t)
	return regret, bound, st, nil
}

// theorem1 measures regret of the WSP worker program on a convex problem
// and compares it against the Section 6 bound, beside the staleness the
// workers observed.
func theorem1(ctx context.Context, r *Report) error {
	for _, s := range []regretSetup{
		{workers: 1, slocal: 0, d: 0, mb: 4000, seed: 1},
		{workers: 1, slocal: 3, d: 0, mb: 4000, seed: 2},
		{workers: 4, slocal: 3, d: 0, mb: 2000, seed: 3},
		{workers: 4, slocal: 3, d: 4, mb: 2000, seed: 4},
		{workers: 4, slocal: 6, d: 32, mb: 2000, seed: 5},
	} {
		regret, bound, st, err := s.measure(ctx)
		if err != nil {
			return err
		}
		r.addf("N=%d slocal=%d D=%d sglobal=%-3d stale=%-3d T=%-5d regret=%8.5f bound=%8.5f  %s",
			s.workers, s.slocal, s.d, s.params().SGlobal(), st.MaxStaleness, s.updates(), regret, bound, verdict(regret <= bound))
	}
	r.notef("the bound is R[W] <= 4ML*sqrt((2*sglobal+slocal+1)*N/T) with measured M and L=1")
	r.notef("stale is the most minibatches a peer may have run beyond the snapshot a minibatch trained on, observed on train.Worker; WSP bounds it by sglobal")
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "HOLDS"
	}
	return "VIOLATED"
}

// traffic reproduces the Section 8.3 cross-node traffic accounting.
func traffic(_ context.Context, r *Report) error {
	paper := map[string]struct{ horovod, edlocal float64 }{
		"VGG-19":     {515, 103},
		"ResNet-152": {211, 298},
	}
	for _, m := range model.PaperModels() {
		sp := core.Spec{Model: m.Name, Policy: "ED", Local: true}
		s, alloc, err := allocated(sp)
		if err != nil {
			return err
		}
		hr, err := s.Horovod(nil)
		if err != nil {
			return err
		}
		dep, err := sp.Deploy(s, alloc)
		if err != nil {
			return err
		}
		r.addf("%-11s Horovod %4.0f MB/worker (paper %3.0f)   ED-local %4.0f MB/VW (paper %3.0f)",
			m.Name,
			float64(hr.CrossNodeBytesPerWorker)/1e6, paper[m.Name].horovod,
			float64(dep.CrossNodeBytesPerMinibatch())/1e6, paper[m.Name].edlocal)
	}
	r.notef("ED-local moves only pipeline activations across nodes; parameters sync within each node")
	return nil
}
