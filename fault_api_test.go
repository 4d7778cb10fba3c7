package hetpipe

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/serve"
)

func TestWithFaultsBadSpec(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"unknown kind", []Option{WithFaults("boom:w0:x2")}},
		{"bad factor", []Option{WithFaults("slow:w0:x0.5")}},
		{"worker out of range", []Option{WithFaults("slow:w99:x2")}},
		{"negative checkpoint", []Option{WithCheckpoint(-1)}},
		// Simulate used to fail it as too short to exercise WSP, Train as a
		// zero budget.
		{"negative minibatches", []Option{WithMinibatchesPerVW(-5)}},
	}
	for _, tc := range cases {
		opts := append([]Option{WithModel("vgg19"), WithPolicy("ED"), WithNm(2)}, tc.opts...)
		_, err := New(opts...)
		if err == nil {
			t.Errorf("%s: New accepted it", tc.name)
			continue
		}
		if !strings.HasPrefix(tc.name, "negative ") && !errors.Is(err, ErrBadFaultPlan) {
			t.Errorf("%s: error %v not ErrBadFaultPlan", tc.name, err)
		}
	}
}

// TestNonFiniteFaultsNeverRun: a NaN factor used to step the simulator's
// clock backwards (a panic), an infinite one to report NaN samples/s, a NaN
// stall to print "waiting NaNs". New refuses each spec as ErrBadFaultPlan, and
// a plan that reaches Simulate's or Serve's layer as a literal, past the
// parser, is refused there.
func TestNonFiniteFaultsNeverRun(t *testing.T) {
	ok, err := New(WithModel("vgg19"), WithCluster("mini"), WithPolicy("ED"), WithNm(2), WithMinibatchesPerVW(16),
		WithTraffic("poisson:r50:n40"))
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := serve.ParseTraffic("poisson:r50:n40")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec string
		plan fault.Plan
	}{
		{"slow:w0:xNaN", fault.Plan{Slowdowns: []fault.Slowdown{{Factor: math.NaN()}}}},
		{"slow:w0:xInf", fault.Plan{Slowdowns: []fault.Slowdown{{Factor: math.Inf(1)}}}},
		{"stall:s0:c1:NaN", fault.Plan{Stalls: []fault.PSStall{{AtClock: 1, Delay: math.NaN()}}}},
		{"crash:w0:mb5:downInf", fault.Plan{Crashes: []fault.Crash{{AtMinibatch: 5, Downtime: math.Inf(1)}}}},
		{"link:w0:xNaN", fault.Plan{Links: []fault.LinkDegrade{{Factor: math.NaN()}}}},
		{"rand:NaN", fault.Plan{Rand: &fault.RandSpec{Rate: math.NaN()}}},
	} {
		for _, serving := range []bool{false, true} {
			opts := []Option{WithModel("vgg19"), WithCluster("mini"), WithPolicy("ED"), WithNm(2), WithFaults(tc.spec)}
			if serving {
				opts = append(opts, WithTraffic("poisson:r50:n40"))
			}
			if _, err := New(opts...); !errors.Is(err, ErrBadFaultPlan) || !strings.Contains(err.Error(), "must be finite") {
				t.Errorf("New with %q (serving %v): error %v, want ErrBadFaultPlan naming a real that must be finite", tc.spec, serving, err)
			}
		}
		if _, err := ok.dep.Simulate(context.Background(), core.SimOptions{Minibatches: 16, Warmup: 8, Faults: &tc.plan}); err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Errorf("simulating %q as a literal: error %v", tc.spec, err)
		}
		if _, err := serve.Run(context.Background(), ok.dep, traffic, serve.Options{Faults: &tc.plan}); err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Errorf("serving under %q as a literal: error %v", tc.spec, err)
		}
	}
}

func TestSimulateEmptyFaultPlanBitIdentical(t *testing.T) {
	base, err := New(WithModel("vgg19"), WithPolicy("ED"), WithNm(2), WithD(1), WithMinibatchesPerVW(16))
	if err != nil {
		t.Fatal(err)
	}
	withEmpty, err := New(WithModel("vgg19"), WithPolicy("ED"), WithNm(2), WithD(1), WithMinibatchesPerVW(16),
		WithFaults(""), WithCheckpoint(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := base.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := withEmpty.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("empty fault plan changed the simulation:\n%+v\nvs\n%+v", a, b)
	}
	if base.Faults() != "" {
		t.Errorf("Faults() = %q, want empty", base.Faults())
	}
}

func TestSimulateWithStragglerReportsInjection(t *testing.T) {
	dep, err := New(WithModel("vgg19"), WithPolicy("ED"), WithNm(2), WithD(1), WithMinibatchesPerVW(16),
		WithFaults("slow:w0:x2"))
	if err != nil {
		t.Fatal(err)
	}
	if dep.Faults() != "slow:w0:x2" {
		t.Errorf("Faults() = %q", dep.Faults())
	}
	var injects int
	ob := func(e Event) {
		if e.Kind == EventFaultInject {
			injects++
			if e.Fault == "" {
				t.Error("inject event lacks a fault description")
			}
		}
	}
	res, err := New2Simulate(t, dep, ob)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultInjections != 1 || injects != 1 {
		t.Errorf("injections: result %d, observer %d, want 1", res.FaultInjections, injects)
	}

	clean, err := New(WithModel("vgg19"), WithPolicy("ED"), WithNm(2), WithD(1), WithMinibatchesPerVW(16))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := clean.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput >= cr.Throughput {
		t.Errorf("straggler throughput %g not below clean %g", res.Throughput, cr.Throughput)
	}
}

// New2Simulate re-resolves dep's options with an observer attached and
// simulates; Deployments are immutable, so an observer must be given at New.
func New2Simulate(t *testing.T, dep *Deployment, ob Observer) (*Result, error) {
	t.Helper()
	d2, err := New(
		WithModel(dep.Model()), WithPolicy("ED"),
		WithNm(dep.Nm()), WithD(dep.D()), WithMinibatchesPerVW(16),
		WithFaults(dep.Faults()), WithObserver(ob),
	)
	if err != nil {
		return nil, err
	}
	return d2.Simulate(context.Background())
}

func TestTrainCrashRecoversAndConforms(t *testing.T) {
	common := []Option{
		WithModel("vgg19"), WithPolicy("ED"),
		WithNm(2), WithD(1), WithMinibatchesPerVW(16),
		WithSeed(7),
	}
	clean, err := New(common...)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := clean.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var recovers int
	opts := append(append([]Option{}, common...),
		WithFaults("crash:w1:mb9:down0.01"), WithCheckpoint(2),
		WithObserver(func(e Event) {
			if e.Kind == EventRecover {
				recovers++
			}
		}))
	faulted, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := faulted.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fs.Crashes != 1 || fs.Recoveries != 1 || recovers != 1 {
		t.Fatalf("crashes=%d recoveries=%d observer=%d, want 1/1/1", fs.Crashes, fs.Recoveries, recovers)
	}
	if fs.Checkpoints == 0 {
		t.Error("no checkpoints were taken")
	}
	// Recovery is numerically invisible: same protocol counts, same final
	// weights (hence identical accuracy and loss).
	if fs.Minibatches != cs.Minibatches || fs.Pushes != cs.Pushes || fs.Pulls != cs.Pulls {
		t.Errorf("counts diverge: %d/%d/%d vs %d/%d/%d",
			fs.Minibatches, fs.Pushes, fs.Pulls, cs.Minibatches, cs.Pushes, cs.Pulls)
	}
	if fs.FinalLoss != cs.FinalLoss || fs.FinalAccuracy != cs.FinalAccuracy {
		t.Errorf("final metrics diverge: loss %v vs %v, acc %v vs %v",
			fs.FinalLoss, cs.FinalLoss, fs.FinalAccuracy, cs.FinalAccuracy)
	}
}

// TestFaultReportsAgreeAcrossBackends runs one plan through all three
// backends: the co-simulation, the live runtime and serving step the same
// fault cursors, so they report the same activations — except the stall,
// which serving runs no parameter synchronization for.
func TestFaultReportsAgreeAcrossBackends(t *testing.T) {
	const spec = "slow:w0:x2,link:w1:x3,crash:w2:mb5:down0.01,stall:s0:c3:0.01"
	reports := func(run func(*Deployment) error, extra ...Option) []string {
		var got []string
		dep, err := New(append([]Option{
			WithModel("vgg19"), WithPolicy("ED"), WithNm(2), WithD(1), WithMinibatchesPerVW(16),
			WithCheckpoint(2), WithFaults(spec),
			WithObserver(func(e Event) {
				if e.Kind == EventFaultInject {
					got = append(got, e.Fault)
				}
			}),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(dep); err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		return got
	}
	ctx := context.Background()
	sim := reports(func(d *Deployment) error { _, err := d.Simulate(ctx); return err })
	live := reports(func(d *Deployment) error { _, err := d.Train(ctx); return err })
	serving := reports(func(d *Deployment) error {
		res, err := d.Serve(ctx)
		if err != nil {
			return err
		}
		for _, r := range res.Replicas {
			if r.Batches < 5 {
				t.Errorf("replica %d admitted %d microbatches, short of the crash at 5", r.Replica, r.Batches)
			}
		}
		return nil
	}, WithTraffic("poisson:r5000:n2000"))
	if want := []string{"crash:w2:mb5", "link:w1:x3", "slow:w0:x2", "stall:c3:0.01"}; !reflect.DeepEqual(sim, want) {
		t.Errorf("sim reports %q, want %q", sim, want)
	}
	if !reflect.DeepEqual(live, sim) {
		t.Errorf("live reports %q, sim %q", live, sim)
	}
	var noStall []string
	for _, f := range sim {
		if !strings.HasPrefix(f, "stall:") {
			noStall = append(noStall, f)
		}
	}
	if !reflect.DeepEqual(serving, noStall) {
		t.Errorf("serving reports %q, want the sim's without its stall, %q", serving, noStall)
	}
}

func TestTrainCheckpointAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shards.ckpt")
	common := []Option{
		WithModel("vgg19"), WithPolicy("ED"),
		WithNm(2), WithD(1), WithSeed(3),
	}
	leg1, err := New(append(append([]Option{}, common...),
		WithMinibatchesPerVW(8), WithCheckpoint(2), WithCheckpointPath(path))...)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := leg1.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s1.GlobalClock == 0 {
		t.Fatal("leg 1 made no progress")
	}

	leg2, err := New(append(append([]Option{}, common...),
		WithMinibatchesPerVW(16), WithResumeFrom(path))...)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := leg2.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s2.ResumedClock != s1.GlobalClock {
		t.Errorf("resumed at clock %d, want %d", s2.ResumedClock, s1.GlobalClock)
	}

	control, err := New(append(append([]Option{}, common...), WithMinibatchesPerVW(16))...)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := control.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s2.FinalLoss != cs.FinalLoss || s2.GlobalClock != cs.GlobalClock {
		t.Errorf("resumed run diverges: loss %v vs %v, clock %d vs %d",
			s2.FinalLoss, cs.FinalLoss, s2.GlobalClock, cs.GlobalClock)
	}
}
