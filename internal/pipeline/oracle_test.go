package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
	"hetpipe/internal/trace"
)

// Analytic oracles for the one executor: on hand-built pipelines the
// simulated schedules must hit closed forms and equivalences, over random
// depths k in [1,8] and Nm in [1,16] — they say the schedules are right, where
// the goldens only say they are stable. The last one, the round-trip bound,
// runs on partitioner-cut heterogeneous plans. The stash oracle runs these
// hand plans too, beside the paper deployments it needs core for, so it is
// core's TestStashesWithinCharge.

const oracleTrials = 60

// handPlan builds a contiguous k-stage plan with the given per-stage times
// (no partitioner): fwd/bwd per stage, recv per boundary in both directions.
func handPlan(nm int, fwd, bwd, recv []float64) *partition.Plan {
	k := len(fwd)
	p := &partition.Plan{Batch: 1, Nm: nm, Stages: make([]partition.Stage, k)}
	for s := range p.Stages {
		c := partition.Chunk{Lo: s, Hi: s + 1, FwdTime: fwd[s], BwdTime: bwd[s]}
		if s > 0 {
			c.RecvActTime = recv[s-1]
		}
		if s < k-1 {
			c.RecvGradTime = recv[s]
		}
		p.Stages[s] = partition.Stage{
			Chunks: []partition.Chunk{c}, FwdTime: c.FwdTime, BwdTime: c.BwdTime,
			RecvActTime: c.RecvActTime, RecvGradTime: c.RecvGradTime,
		}
	}
	return p
}

// uniform returns n copies of v.
func uniform(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// randTimes returns n times in [0.5, 1.5).
func randTimes(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.5 + rng.Float64()
	}
	return out
}

func runTraced(t *testing.T, plan *partition.Plan, s sched.Schedule, minibatches int) (*Result, *trace.Trace) {
	t.Helper()
	tr := trace.New(len(plan.Stages))
	res, err := Run(Config{Plan: plan, Schedule: s, Minibatches: minibatches, Trace: tr})
	if err != nil {
		t.Fatalf("%s k=%d nm=%d: %v", s.Name(), len(plan.Stages), plan.Nm, err)
	}
	return res, tr
}

// sameRun fails unless two runs produced the same completion timeline and
// the same spans in the same recording order, bit for bit.
func sameRun(t *testing.T, label string, a, b *Result, ta, tb *trace.Trace) {
	t.Helper()
	if len(a.Completions) != len(b.Completions) || len(ta.Spans) != len(tb.Spans) {
		t.Fatalf("%s: %d/%d completions, %d/%d spans", label, len(a.Completions), len(b.Completions), len(ta.Spans), len(tb.Spans))
	}
	for i := range a.Completions {
		if a.Completions[i] != b.Completions[i] {
			t.Fatalf("%s: completion %d at %v vs %v", label, i+1, a.Completions[i], b.Completions[i])
		}
	}
	for i := range ta.Spans {
		if ta.Spans[i] != tb.Spans[i] {
			t.Fatalf("%s: span %d is %+v vs %+v", label, i, ta.Spans[i], tb.Spans[i])
		}
	}
}

// TestGPipeBubbleFraction: with uniform stage times and free transfers, a
// fill-drain wave of Nm minibatches over k stages takes (Nm+k-1)(f+b) while
// every GPU works Nm(f+b), so each GPU idles (k-1)/(Nm+k-1) of whole waves.
func TestGPipeBubbleFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < oracleTrials; i++ {
		k, nm, waves := 1+rng.Intn(8), 1+rng.Intn(16), 1+rng.Intn(3)
		f, b := 0.5+rng.Float64(), 0.5+rng.Float64()
		plan := handPlan(nm, uniform(k, f), uniform(k, b), uniform(k, 0))
		res, err := Run(Config{Plan: plan, Schedule: sched.GPipe, Minibatches: waves * nm})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(k-1) / float64(nm+k-1)
		for g, u := range res.GPUUtil {
			if idle := 1 - u; math.Abs(idle-want) > 1e-9 {
				t.Errorf("k=%d nm=%d waves=%d gpu %d: idle fraction %.12f, want (k-1)/(Nm+k-1) = %.12f", k, nm, waves, g, idle, want)
			}
		}
	}
}

// TestTwoBWAndInterleavedV1AreOneF1B: 2bw differs from 1f1b in memory only,
// and interleaved at V=1 with free transfers has nothing to overlap, so on
// the same plan all three are the same task graph.
func TestTwoBWAndInterleavedV1AreOneF1B(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < oracleTrials; i++ {
		k, nm := 1+rng.Intn(8), 1+rng.Intn(16)
		n := 2*nm + rng.Intn(8)
		plan := handPlan(nm, randTimes(rng, k), randTimes(rng, k), randTimes(rng, k))
		ref, refTr := runTraced(t, plan, sched.OneF1B, n)
		got, gotTr := runTraced(t, plan, sched.TwoBW, n)
		sameRun(t, "2bw vs 1f1b", ref, got, refTr, gotTr)

		for s := range plan.Stages {
			st := &plan.Stages[s]
			st.RecvActTime, st.RecvGradTime = 0, 0
			st.Chunks[0].RecvActTime, st.Chunks[0].RecvGradTime = 0, 0
		}
		ref, refTr = runTraced(t, plan, sched.OneF1B, n)
		got, gotTr = runTraced(t, plan, sched.Interleaved, n)
		sameRun(t, "interleaved V=1 vs 1f1b", ref, got, refTr, gotTr)
	}
}

// TestOverlapAtLeastFIFOOnHomogeneousPipelines is the Section 9 claim on the
// executor itself: taking paid receives off the GPUs never finishes later.
func TestOverlapAtLeastFIFOOnHomogeneousPipelines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < oracleTrials; i++ {
		k, nm := 1+rng.Intn(8), 1+rng.Intn(16)
		plan := handPlan(nm, uniform(k, 0.5+rng.Float64()), uniform(k, 0.5+rng.Float64()), uniform(k, 0.1+rng.Float64()))
		n := 3 * nm
		fifo, err := Run(Config{Plan: plan, Schedule: sched.FIFO, Minibatches: n})
		if err != nil {
			t.Fatal(err)
		}
		over, err := Run(Config{Plan: plan, Schedule: sched.Overlap, Minibatches: n})
		if err != nil {
			t.Fatal(err)
		}
		if over.Throughput < fifo.Throughput*(1-1e-12) {
			t.Errorf("k=%d nm=%d: overlap %.9g < fifo %.9g samples/s", k, nm, over.Throughput, fifo.Throughput)
		}
	}
}

// forwardOnly drives n microbatches through a forward-only executor with up
// to window in flight and returns their completion times.
func forwardOnly(eng *sim.Engine, plan *partition.Plan, s sched.Schedule, window, n int, done []sim.Time) ([]sim.Time, error) {
	eng.Reset()
	var x *Executor
	next := 0
	x = NewExecutor(eng, ExecConfig{
		Times: Times(plan), GPUs: len(plan.Stages), Schedule: s, ForwardOnly: true,
		AtEnd: func(int) {
			done = append(done, eng.Now())
			if next < n {
				next++
				x.Enter(next)
			}
		},
	})
	for next < n && next < window {
		next++
		x.Enter(next)
	}
	return done, eng.Run()
}

// TestForwardOnlyTraversalSum: with one microbatch in flight a forward-only
// executor is a serial walk, so microbatch i completes at the running sum of
// i traversals of (receive + forward) per stage of the time table (Times) —
// exactly, since sums of its multiples of sim's quantum are exact. The pick
// decision must not matter: no backward exists to prefer.
func TestForwardOnlyTraversalSum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < oracleTrials; i++ {
		k, n := 1+rng.Intn(8), 1+rng.Intn(16)
		plan := handPlan(1, randTimes(rng, k), randTimes(rng, k), randTimes(rng, k))
		times := Times(plan)
		for _, s := range []sched.Schedule{sched.FIFO, sched.Overlap, sched.OneF1B, sched.GPipe} {
			got, err := forwardOnly(sim.New(), plan, s, 1, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("%s k=%d: %d of %d microbatches completed", s.Name(), k, len(got), n)
			}
			var now sim.Time
			for mb := 0; mb < n; mb++ {
				for _, row := range times {
					now += sim.Time(row.RecvAct + row.Fwd)
				}
				if got[mb] != now {
					t.Fatalf("%s k=%d: microbatch %d done at %v, want %v", s.Name(), k, mb+1, got[mb], now)
				}
			}
		}
	}
}

// TestThroughputNeverExceedsRoundTripBound holds every schedule to
// ThroughputBound on heterogeneous plans: random skewed chains cut by the
// partitioner for random workers of the doubled paper cluster (k in [1,8],
// GPU types and PCIe/InfiniBand boundaries mixed freely), all six schedules,
// interleaved also at V = 2, Nm in [1,10], over core's solo measurement window
// and a random one. No run may report more than the bound, not by a bit; with
// one minibatch in flight the run IS the bound, bit for bit; and enough runs
// must land within 2% of it that the test cannot pass by the bound being
// loose.
func TestThroughputNeverExceedsRoundTripBound(t *testing.T) {
	c, err := hw.ClusterByName("paper-x2")
	if err != nil {
		t.Fatal(err)
	}
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	rng := rand.New(rand.NewSource(18))
	perf := profile.Default()
	eng := sim.New()
	gpus := c.GPUs()
	cases, tight, mixed, worst := 0, 0, 0, 0.0
	for round := 0; round < rounds; round++ {
		k := 1 + rng.Intn(8)
		vw := &hw.VirtualWorker{}
		for _, i := range rng.Perm(len(gpus))[:k] {
			vw.GPUs = append(vw.GPUs, gpus[i])
		}
		if n := vw.CrossNodeBoundaries(); n > 0 && n < k-1 {
			mixed++
		}
		// Boundaries of 1 KiB to 1 MiB per sample put transfers anywhere from
		// negligible to dominant beside the compute.
		w := make([]float64, 2*k+rng.Intn(24))
		for i := range w {
			w[i] = math.Exp(rng.NormFloat64()) * 1e9
		}
		m := model.Skewed("trip", w, 1<<10, int64(1)<<(8+rng.Intn(11)))
		batch := 1 + rng.Intn(64)
		for _, name := range sched.Names() {
			s, err := sched.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for v := 1; v <= 2; v++ {
				if v > 1 && !s.SupportsInterleave() {
					continue
				}
				pt := partition.NewInterleaved(perf, s, v)
				for nm := 1; nm <= 10; nm++ {
					plan, err := pt.Partition(c, m, vw, nm, batch)
					if err != nil {
						t.Fatalf("round %d %s V=%d Nm=%d on %s: %v", round, name, v, nm, vw.TypeString(), err)
					}
					total := 1 + rng.Intn(60)
					for _, win := range [][2]int{{40 + 10*nm, 10 + 2*nm}, {total, rng.Intn(total)}} {
						res, err := RunOn(eng, Config{Plan: plan, Schedule: s, Minibatches: win[0], Warmup: win[1]})
						if err != nil {
							t.Fatal(err)
						}
						bound := ThroughputBound(plan, s, win[0], win[1])
						ratio := res.Throughput / bound
						id := fmt.Sprintf("round %d %s %s V=%d Nm=%d window %v", round, vw.TypeString(), name, v, nm, win)
						if ratio > 1 {
							t.Fatalf("%s: simulated %.17g samples/s exceeds the bound %.17g (ratio 1 + %.3g)", id, res.Throughput, bound, ratio-1)
						}
						if nm == 1 && res.Throughput != bound {
							t.Fatalf("%s: one minibatch in flight ran %.17g samples/s, bound %.17g", id, res.Throughput, bound)
						}
						cases++
						worst = max(worst, ratio)
						if ratio > 0.98 {
							tight++
						}
					}
				}
			}
		}
	}
	if mixed == 0 {
		t.Error("no worker mixed PCIe and InfiniBand boundaries")
	}
	if tight*100 < cases*15 {
		t.Errorf("only %d of %d runs within 2%% of the bound: it is too loose to prove anything", tight, cases)
	}
	t.Logf("%d runs, %d within 2%% of the bound, worst ratio 1 + %.3g; %d of %d workers mix link kinds", cases, tight, worst-1, mixed, rounds)
}
