package experiment

import (
	"context"
	"errors"
	"flag"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/tensor"
	"hetpipe/internal/train"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files")

// checkGolden compares got with the golden file, after rewriting it under
// -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("reports differ from %s; rerun with -update and regenerate EXPERIMENTS.md's sections if intended\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// numbersAfter returns, per report line, the number following each of keys.
func numbersAfter(t *testing.T, r *Report, keys ...string) [][]float64 {
	t.Helper()
	out := make([][]float64, len(r.Lines))
	for i, line := range r.Lines {
		for _, key := range keys {
			m := regexp.MustCompile(regexp.QuoteMeta(key) + `\s*(-?[0-9.]+)`).FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("%s line %q has no %q", r.Name, line, key)
			}
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], v)
		}
	}
	return out
}

// TestConvergenceFigures pins the three time-axis experiments and theorem1
// twice: to the byte (testdata/convergence.golden, which EXPERIMENTS.md
// quotes) and to the paper's claims, so neither the numbers nor the prose
// about them can drift unnoticed — for some twenty PRs figure6 printed idle =
// 100 % of waiting and no gain from D while the document quoted an older
// binary. TestTheorem1AllHold checks theorem1's claims.
//
// It is tier 1's slowest test (~8 s on a 2-core host) and keeps that size:
// the golden is what hetbench prints, so the experiments run at the sizes
// hetbench runs them, and figure5 and figure6 must train every curve to its
// target for the time-to-accuracy claims to mean anything. A smaller run
// would pin numbers nobody reads.
func TestConvergenceFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("figure5 and figure6 train to their targets (~12 s)")
	}
	reports := map[string]*Report{}
	var all strings.Builder
	for _, name := range []string{"figure5", "figure6", "syncoverhead", "theorem1"} {
		r, err := Run(t.Context(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reports[name] = r
		all.WriteString(r.String())
	}
	checkGolden(t, "testdata/convergence.golden", all.String())

	// Figure 5: Horovod-12, HetPipe-12, HetPipe-16 — each faster than the last.
	f5 := numbersAfter(t, reports["figure5"], "target in")
	if hv, h12, h16 := f5[0][0], f5[1][0], f5[2][0]; !(h16 < h12 && h12 < hv) {
		t.Errorf("figure5: want HetPipe-16 < HetPipe-12 < Horovod-12, got %.1f, %.1f, %.1f s", h16, h12, hv)
	}
	// Figure 6: Horovod, D=0, D=4, D=32. D=4 gains at least ten points on
	// D=0, and D=32 stays within five points of D=4.
	f6 := numbersAfter(t, reports["figure6"], "target in")
	hv := f6[0][0]
	gain := func(i int) float64 { return 100 * (hv - f6[i][0]) / hv }
	if d0, d4, d32 := gain(1), gain(2), gain(3); d0 <= 0 || d4 < d0+10 || d32 < d4-5 || d32 > d4+5 {
		t.Errorf("figure6: gains over Horovod D=0 %.0f%%, D=4 %.0f%%, D=32 %.0f%%", d0, d4, d32)
	}
	// Section 8.4: pipelining hides most of the wait, and D removes it.
	so := numbersAfter(t, reports["syncoverhead"], "waiting=", "idle=")
	if waiting, idle := so[0][0], so[0][1]; idle <= 0 || idle > 0.30*waiting {
		t.Errorf("syncoverhead: idle %.1f s is not within (0, 30%%] of waiting %.1f s at D=0", idle, waiting)
	}
	for i := 1; i < len(so); i++ {
		if so[i][0] >= so[i-1][0] {
			t.Errorf("syncoverhead: waiting does not fall with D: %.1f s then %.1f s", so[i-1][0], so[i][0])
		}
	}
}

// TestGoldenIsQuotedInExperimentsDoc: EXPERIMENTS.md quotes the golden's
// result rows, line for line.
func TestGoldenIsQuotedInExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/convergence.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "===") || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(string(doc), line) {
			t.Errorf("EXPERIMENTS.md does not quote %q", line)
		}
	}
}

func TestBoundFormula(t *testing.T) {
	// Hand-computed: 4*M*L*sqrt((2sg+sl)N/T).
	got := regretBound(2, 3, 6, 4, 4, 1024)
	want := 4.0 * 2 * 3 * math.Sqrt(float64((2*6+4)*4)/1024.0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("regretBound = %v, want %v", got, want)
	}
	// regretBound shrinks with T and grows with staleness.
	if regretBound(1, 1, 6, 4, 4, 4000) >= regretBound(1, 1, 6, 4, 4, 1000) {
		t.Error("bound should shrink with T")
	}
	if regretBound(1, 1, 22, 4, 4, 1000) <= regretBound(1, 1, 6, 4, 4, 1000) {
		t.Error("bound should grow with staleness")
	}
}

func TestSigmaFormula(t *testing.T) {
	got := sigma(2, 4, 6, 4, 4)
	want := 2 / (4 * math.Sqrt(float64((2*6+4)*4)))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("sigma = %v, want %v", got, want)
	}
}

// TestTheorem1RegretUnderBound: across WSP configurations other than
// theorem1's own rows — plain SGD, pipeline staleness only, BSP-like waves,
// bounded global staleness and the Figure 6 extreme — the regret the worker
// program measures sits under the bound and is not substantially negative.
func TestTheorem1RegretUnderBound(t *testing.T) {
	for _, s := range []regretSetup{
		{workers: 1, slocal: 0, d: 0, mb: 2000, seed: 1},
		{workers: 1, slocal: 3, d: 0, mb: 2000, seed: 2},
		{workers: 4, slocal: 3, d: 0, mb: 1000, seed: 3},
		{workers: 4, slocal: 3, d: 4, mb: 1000, seed: 4},
		{workers: 2, slocal: 6, d: 32, mb: 2000, seed: 5},
	} {
		regret, bound, _, err := s.measure(context.Background())
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if regret > bound {
			t.Errorf("%+v: regret %.4f exceeds bound %.4f", s, regret, bound)
		}
		if regret < -0.05 {
			t.Errorf("%+v: regret %.4f is substantially negative (w* estimate broken?)", s, regret)
		}
	}
}

func TestTheorem1RegretShrinksWithT(t *testing.T) {
	short, _, _, err := regretSetup{workers: 2, slocal: 2, d: 1, mb: 250, seed: 9}.measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	long, _, _, err := regretSetup{workers: 2, slocal: 2, d: 1, mb: 4000, seed: 9}.measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if long >= short {
		t.Errorf("regret did not shrink with T: %.4f (T=500) vs %.4f (T=8000)", short, long)
	}
}

// gradeCounter counts the Grad calls per minibatch index of the task it
// wraps.
type gradeCounter struct {
	*regretTask
	graded []int
}

func (g *gradeCounter) Grad(w tensor.Vector, b int, out tensor.Vector) {
	g.graded[b]++
	g.regretTask.Grad(w, b, out)
}

// TestTheorem1GradesEveryUpdateOnce: the regret is a mean over T graded
// updates, so each index in [0,T) must be graded exactly once, partial last
// waves and gated pulls included.
func TestTheorem1GradesEveryUpdateOnce(t *testing.T) {
	for _, s := range []regretSetup{
		{workers: 1, slocal: 0, d: 0, mb: 50, seed: 1},
		{workers: 3, slocal: 3, d: 0, mb: 50, seed: 2},
		{workers: 4, slocal: 6, d: 32, mb: 50, seed: 3},
	} {
		task, err := newRegretTask(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		g := &gradeCounter{regretTask: task, graded: make([]int, s.updates())}
		st, err := s.run(context.Background(), g)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if st.Minibatches != s.updates() {
			t.Errorf("%+v: %d minibatches, want T = %d", s, st.Minibatches, s.updates())
		}
		for b, n := range g.graded {
			if n != 1 {
				t.Errorf("%+v: minibatch %d graded %d times", s, b, n)
			}
		}
	}
}

// smallRun trains the 40-feature default task on four VRGQ virtual workers
// of the paper cluster (VGG-19, ED-local, D=1) at a fixed Nm under the named
// schedule and fault spec.
func smallRun(t *testing.T, schedule string, nm int, faults string, target float64) *train.RunStats {
	t.Helper()
	dep, err := core.Spec{Model: "vgg19", Schedule: schedule, Specs: "VRGQ,VRGQ,VRGQ,VRGQ", Nm: nm, D: 1, Local: true}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	task, err := train.DefaultTask(7)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse(faults)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trainOn(t.Context(), dep, train.WSPConfig{Task: task, LR: 0.2, MaxMinibatches: 240, EvalEvery: 48, TargetLoss: target}, plan)
	if err != nil {
		t.Fatalf("%s nm=%d %q: %v", schedule, nm, faults, err)
	}
	return st
}

// cancelAfter is a train.Task that calls cancel at its at-th gradient: a
// caller's cancel that lands inside the co-simulation, mid-run.
type cancelAfter struct {
	train.Task
	at, graded int
	cancel     context.CancelFunc
}

func (c *cancelAfter) Grad(w tensor.Vector, b int, out tensor.Vector) {
	if c.graded++; c.graded == c.at {
		c.cancel()
	}
	c.Task.Grad(w, b, out)
}

// TestTrainOnReturnsTheCallersCancel: the caller's cancel stops trainOn's
// co-simulation at its next context poll, well short of the budget. A
// cancelled Simulate returns its counted result beside ctx.Err() whoever
// cancelled it, so trainOn's own cancel at the target and the caller's look
// alike there. The caller's must come back as ctx.Err() with no statistics,
// or a cancelled figure would print its truncated runs as curves that did
// not reach the target.
func TestTrainOnReturnsTheCallersCancel(t *testing.T) {
	dep, err := core.Spec{Model: "vgg19", Specs: "VRGQ,VRGQ,VRGQ,VRGQ", Nm: 4, D: 1, Local: true}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	task, err := train.DefaultTask(7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	cut := &cancelAfter{Task: task, at: 100, cancel: cancel}
	st, err := trainOn(ctx, dep, train.WSPConfig{Task: cut, LR: 0.2, MaxMinibatches: 240, EvalEvery: 48}, nil)
	if !errors.Is(err, context.Canceled) || st != nil {
		t.Errorf("trainOn cancelled by its caller: statistics %t, error %v; want none and context.Canceled", st != nil, err)
	}
	if cut.graded >= 2*cut.at {
		t.Errorf("cancelled at minibatch %d of 960, the run went on to grade %d", cut.at, cut.graded)
	}
}

func sameWeights(t *testing.T, what string, a, b *train.RunStats) {
	t.Helper()
	if len(a.FinalWeights) == 0 || len(a.FinalWeights) != len(b.FinalWeights) {
		t.Fatalf("%s: %d vs %d weights", what, len(a.FinalWeights), len(b.FinalWeights))
	}
	for i := range a.FinalWeights {
		if a.FinalWeights[i] != b.FinalWeights[i] {
			t.Fatalf("%s: weights diverge at %d: %g vs %g", what, i, a.FinalWeights[i], b.FinalWeights[i])
		}
	}
}

// TestFaultsAndSchedulesReachTheCurve is what riding the co-simulation buys:
// a fault plan or a pipeline schedule moves a time-to-target — it could not
// reach the private clock the figures used to run on — and still never moves
// a weight, because the numerics read N, Nm and D and nothing else.
func TestFaultsAndSchedulesReachTheCurve(t *testing.T) {
	const nm, target = 4, 0.6
	clean := smallRun(t, "hetpipe-fifo", nm, "", target)
	slow := smallRun(t, "hetpipe-fifo", nm, "slow:w0:x2", target)
	if !clean.ReachedTarget || !slow.ReachedTarget {
		t.Fatalf("target loss %.2f not reached: fault-free %.3f, slowed %.3f", target, clean.FinalLoss, slow.FinalLoss)
	}
	if slow.TimeToTarget <= clean.TimeToTarget {
		t.Errorf("slow:w0:x2 reached the target at %.2f s, fault-free at %.2f s", slow.TimeToTarget, clean.TimeToTarget)
	}
	if clean.Minibatches >= 4*240 {
		t.Error("the run was not cancelled at its target")
	}
	if clean.Waiting <= 0 || clean.Pulls == 0 {
		t.Errorf("a run cancelled at its target reports waiting %.2f s, %d pulls", clean.Waiting, clean.Pulls)
	}

	budget := smallRun(t, "hetpipe-fifo", nm, "", 0)
	sameWeights(t, "slow:w0:x2 against fault-free", budget, smallRun(t, "hetpipe-fifo", nm, "slow:w0:x2", 0))
	for _, clause := range []string{"crash:w1:mb40", "stall:s0:c3:0.5"} {
		st := smallRun(t, "hetpipe-fifo", nm, clause, 0)
		if st.Minibatches != budget.Minibatches || st.Elapsed < budget.Elapsed {
			t.Errorf("%s: %d minibatches in %.2f s, fault-free %d in %.2f s", clause, st.Minibatches, st.Elapsed, budget.Minibatches, budget.Elapsed)
		}
		sameWeights(t, clause+" against fault-free", budget, st)
	}

	other := smallRun(t, "1f1b", nm, "", 0)
	if other.Elapsed == budget.Elapsed {
		t.Errorf("1f1b and hetpipe-fifo both took %.3f s", budget.Elapsed)
	}
	sameWeights(t, "1f1b against hetpipe-fifo", budget, other)
}
