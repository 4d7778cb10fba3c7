package hetpipe

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hetpipe/internal/cluster"
	"hetpipe/internal/train"
)

// allSentinels is the package's complete exported Err* surface, in
// declaration order. TestNewSentinelErrors checks the table below against it,
// so adding a sentinel without a reachability case is a test failure.
var allSentinels = map[string]error{
	"ErrUnknownModel":    ErrUnknownModel,
	"ErrUnknownCluster":  ErrUnknownCluster,
	"ErrUnknownPolicy":   ErrUnknownPolicy,
	"ErrUnknownTask":     ErrUnknownTask,
	"ErrNoAllocation":    ErrNoAllocation,
	"ErrUnknownSchedule": ErrUnknownSchedule,
	"ErrBadFaultPlan":    ErrBadFaultPlan,
	"ErrBadInterleave":   ErrBadInterleave,
	"ErrBadTraffic":      ErrBadTraffic,
	"ErrNoTraffic":       ErrNoTraffic,
}

func TestNewSentinelErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want error
	}{
		{"unknown model", []Option{WithModel("nope"), WithPolicy("ED")}, ErrUnknownModel},
		{"empty model", []Option{WithPolicy("ED")}, ErrUnknownModel},
		{"unknown cluster", []Option{WithModel("vgg19"), WithCluster("dgx"), WithPolicy("ED")}, ErrUnknownCluster},
		{"unknown policy", []Option{WithModel("vgg19"), WithPolicy("XX")}, ErrUnknownPolicy},
		{"unknown task", []Option{WithModel("vgg19"), WithPolicy("ED"), WithTrainTask("gpt")}, ErrUnknownTask},
		{"no allocation", []Option{WithModel("vgg19")}, ErrNoAllocation},
		{"unknown schedule", []Option{WithModel("vgg19"), WithPolicy("ED"), WithSchedule("nope")}, ErrUnknownSchedule},
		{"negative interleave", []Option{WithModel("vgg19"), WithPolicy("ED"), WithInterleave(-1)}, ErrBadInterleave},
		{"interleave on non-interleaved schedule", []Option{WithModel("vgg19"), WithPolicy("ED"), WithSchedule("gpipe"), WithInterleave(2)}, ErrBadInterleave},
		{"bad fault plan", []Option{WithModel("vgg19"), WithPolicy("ED"), WithFaults("not-a-plan")}, ErrBadFaultPlan},
		{"bad traffic kind", []Option{WithModel("vgg19"), WithPolicy("ED"), WithTraffic("warp:r10:n5")}, ErrBadTraffic},
		{"bad traffic rate", []Option{WithModel("vgg19"), WithPolicy("ED"), WithTraffic("poisson:r0:n5")}, ErrBadTraffic},
		// Both parse as floats; the first used to hang Serve, the second to report mean=NaN.
		{"NaN traffic amplitude", []Option{WithModel("vgg19"), WithPolicy("ED"), WithTraffic("diurnal:r10:aNaN:p1:n50")}, ErrBadTraffic},
		{"NaN traffic rate", []Option{WithModel("vgg19"), WithPolicy("ED"), WithTraffic("poisson:rNaN:n50")}, ErrBadTraffic},
	}
	covered := map[error]bool{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.opts...); !errors.Is(err, c.want) {
				t.Errorf("New() error = %v, want errors.Is %v", err, c.want)
			}
		})
		covered[c.want] = true
	}
	// ErrNoTraffic is reported at Serve time: the deployment resolved fine,
	// it just has no traffic to serve.
	dep, err := New(WithModel("vgg19"), WithPolicy("ED"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Serve(context.Background()); !errors.Is(err, ErrNoTraffic) {
		t.Errorf("Serve() without traffic error = %v, want errors.Is ErrNoTraffic", err)
	}
	covered[ErrNoTraffic] = true
	for name, sentinel := range allSentinels {
		if !covered[sentinel] {
			t.Errorf("sentinel %s has no reachability case in this test", name)
		}
	}
}

// TestRunSentinelErrors covers the entry point beside New that resolves names.
func TestRunSentinelErrors(t *testing.T) {
	if _, err := Horovod("nope", "", 32); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("Horovod unknown model error = %v, want errors.Is ErrUnknownModel", err)
	}
	if _, err := Horovod("vgg19", "dgx", 32); !errors.Is(err, ErrUnknownCluster) {
		t.Errorf("Horovod unknown cluster error = %v, want errors.Is ErrUnknownCluster", err)
	}
}

// TestNonFiniteLearningRateRejected: "lr <= 0" is false for NaN and +Inf, so
// every trainer used to run them to all-NaN weights — which the conformance
// report then called CONFORMANT, a NaN never being a difference.
func TestNonFiniteLearningRateRejected(t *testing.T) {
	task, err := train.DefaultTask(1)
	if err != nil {
		t.Fatal(err)
	}
	periods := []float64{0.1, 0.1}
	for _, lr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		entries := map[string]func() error{
			"New+Train": func() error {
				dep, err := New(WithModel("vgg19"), WithPolicy("ED"), WithNm(2), WithMinibatchesPerVW(4), WithLearningRate(lr))
				if err == nil {
					_, err = dep.Train(context.Background())
				}
				return err
			},
			"cluster.Run": func() error {
				_, err := cluster.Run(context.Background(), cluster.Config{Task: task, Workers: 2, Servers: 1, LR: lr, MaxMinibatches: 4})
				return err
			},
			"RunWSP": func() error {
				_, err := train.RunWSP(context.Background(), train.WSPConfig{Task: task, Workers: 2, LR: lr, MaxMinibatches: 4, EvalEvery: 8})
				return err
			},
			"RunBSP": func() error {
				_, err := train.RunBSP(context.Background(), train.BSPConfig{Task: task, LR: lr, Periods: periods, MaxIterations: 4, EvalEvery: 8})
				return err
			},
		}
		for name, run := range entries {
			err := run()
			want := "must be finite"
			if lr < 0 {
				want = "learning rate"
			}
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with lr=%g: error %v, want %q", name, lr, err, want)
			}
		}
	}
}

func TestDeploymentInspectionAndReuse(t *testing.T) {
	dep, err := New(WithModel("vgg19"), WithPolicy("ED"), WithLocalPlacement(true))
	if err != nil {
		t.Fatal(err)
	}
	if got := dep.Model(); got != "vgg19" {
		t.Errorf("Model() = %q", got)
	}
	if got := dep.ClusterName(); got != "paper" {
		t.Errorf("ClusterName() = %q, want paper (default)", got)
	}
	if got := dep.Batch(); got != 32 {
		t.Errorf("Batch() = %d, want default 32", got)
	}
	vws := dep.VirtualWorkers()
	if len(vws) != 4 {
		t.Fatalf("VirtualWorkers() = %v, want 4 VWs", vws)
	}
	for _, vw := range vws {
		if vw != "VRGQ" {
			t.Errorf("ED VW = %s, want VRGQ", vw)
		}
	}
	if len(dep.Plans()) != 4 {
		t.Errorf("Plans() = %d entries, want 4", len(dep.Plans()))
	}
	if want := dep.Nm() - 1; dep.SLocal() != want {
		t.Errorf("SLocal() = %d, want Nm-1 = %d", dep.SLocal(), want)
	}
	if want := (dep.D()+1)*dep.Nm() + dep.Nm() - 2; dep.SGlobal() != want {
		t.Errorf("SGlobal() = %d, want %d", dep.SGlobal(), want)
	}

	// The deployment is resolved once and runnable many times; repeated
	// simulations are deterministic and independent.
	a, err := dep.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := dep.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.Waiting != b.Waiting || a.Pushes != b.Pushes {
		t.Errorf("repeated Simulate diverged: %+v vs %+v", a, b)
	}
	if a.Throughput <= 0 {
		t.Error("non-positive throughput")
	}
}

func TestSimulateObserverStream(t *testing.T) {
	var mu sync.Mutex
	counts := map[EventKind]int{}
	dep, err := New(
		WithModel("vgg19"), WithPolicy("ED"),
		WithNm(2), WithD(1), WithMinibatchesPerVW(16),
		WithObserver(func(e Event) {
			if e.Backend != "sim" {
				t.Errorf("sim event backend = %q", e.Backend)
			}
			mu.Lock()
			counts[e.Kind]++
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 16; counts[EventMinibatch] != want {
		t.Errorf("minibatch events = %d, want %d", counts[EventMinibatch], want)
	}
	if counts[EventPush] != res.Pushes {
		t.Errorf("push events = %d, want Result.Pushes = %d", counts[EventPush], res.Pushes)
	}
	if counts[EventPull] != res.Pulls {
		t.Errorf("pull events = %d, want Result.Pulls = %d", counts[EventPull], res.Pulls)
	}
	if counts[EventClockAdvance] == 0 {
		t.Error("no clock-advance events")
	}
}

func TestSimulateContextCancelled(t *testing.T) {
	dep, err := New(WithModel("vgg19"), WithPolicy("ED"), WithNm(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dep.Simulate(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Simulate(cancelled) = %v, want context.Canceled", err)
	}
	// The deployment is still usable after an aborted run.
	if _, err := dep.Simulate(context.Background()); err != nil {
		t.Errorf("Simulate after cancellation failed: %v", err)
	}
}

func TestTrainLiveWithObserver(t *testing.T) {
	var mu sync.Mutex
	counts := map[EventKind]int{}
	dep, err := New(
		WithModel("vgg19"), WithPolicy("ED"),
		WithNm(2), WithD(1), WithMinibatchesPerVW(16),
		WithObserver(func(e Event) {
			if e.Backend != "live" {
				t.Errorf("live event backend = %q", e.Backend)
			}
			mu.Lock()
			counts[e.Kind]++
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := dep.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 16; sum.Minibatches != want {
		t.Errorf("live minibatches = %d, want %d", sum.Minibatches, want)
	}
	if want := 4 * 16 / 2; sum.Pushes != want {
		t.Errorf("live pushes = %d, want %d (one per wave)", sum.Pushes, want)
	}
	if sum.GlobalClock != 8 {
		t.Errorf("global clock = %d, want 8 complete waves", sum.GlobalClock)
	}
	if sum.MaxClockDistance > 2 {
		t.Errorf("live clock distance %d exceeds D+1=2", sum.MaxClockDistance)
	}
	if counts[EventMinibatch] != sum.Minibatches {
		t.Errorf("minibatch events = %d, want %d", counts[EventMinibatch], sum.Minibatches)
	}
	if counts[EventPush] != sum.Pushes {
		t.Errorf("push events = %d, want %d", counts[EventPush], sum.Pushes)
	}
	if counts[EventPull] != sum.Pulls {
		t.Errorf("pull events = %d, want %d", counts[EventPull], sum.Pulls)
	}
}

// waitForGoroutines polls until the goroutine count drops back to within
// slack of the baseline, failing the test if it never does — the
// no-leaked-goroutines assertion for cancelled live runs.
func waitForGoroutines(t *testing.T, baseline, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked after cancelled run: %d > baseline %d + %d\n%s",
				n, baseline, slack, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTrainCancelReapsEverything(t *testing.T) {
	// A TCP run with a budget far beyond what the cancellation window
	// allows: the run must be cut short mid-flight, return context.Canceled,
	// and leave no worker goroutines, serve loops, or sockets behind.
	dep, err := New(
		WithModel("vgg19"), WithPolicy("ED"),
		WithNm(2), WithD(1), WithMinibatchesPerVW(500_000),
		WithTCP(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := dep.Train(ctx)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Train(cancelled) = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Train did not return")
	}
	waitForGoroutines(t, baseline, 2)
}

func TestTrainDeadlineInProcess(t *testing.T) {
	dep, err := New(
		WithModel("vgg19"), WithPolicy("ED"),
		WithNm(2), WithD(1), WithMinibatchesPerVW(500_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := dep.Train(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Train(deadline) = %v, want context.DeadlineExceeded", err)
	}
	waitForGoroutines(t, baseline, 2)
}

// TestRunExperimentCancelled: a cancelled context stops an experiment's own
// simulations and training runs, and RunExperiment hands back no report of
// the cut run. Pre-cancelled, every catalog entry returns context.Canceled.
// Cancelled mid-run — figure6 (about 6 s uncancelled) 200 ms in, while its
// Horovod baseline trains, and theorem1 (about 0.4 s) 50 ms in, inside its
// WSP runs — each returns it well before its uncancelled end and leaves no
// goroutine behind.
func TestRunExperimentCancelled(t *testing.T) {
	cancelled, cancel := context.WithCancel(t.Context())
	cancel()
	for _, e := range ExperimentCatalog() {
		if out, err := RunExperiment(cancelled, e.Name); out != "" || !errors.Is(err, context.Canceled) {
			t.Errorf("RunExperiment(cancelled, %q) = %d bytes, %v; want none and context.Canceled", e.Name, len(out), err)
		}
	}

	for _, c := range []struct {
		name         string
		after, grace time.Duration
	}{{"figure6", 200 * time.Millisecond, time.Second}, {"theorem1", 50 * time.Millisecond, 150 * time.Millisecond}} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(t.Context())
		type result struct {
			out string
			err error
		}
		done := make(chan result, 1)
		go func() {
			out, err := RunExperiment(ctx, c.name)
			done <- result{out, err}
		}()
		time.Sleep(c.after)
		cancel()
		select {
		case r := <-done:
			if r.out != "" || !errors.Is(r.err, context.Canceled) {
				t.Fatalf("%s cancelled mid-run = %q, %v; want no report and context.Canceled", c.name, r.out, r.err)
			}
		case <-time.After(c.grace):
			t.Fatalf("%s still running %v after its context was cancelled", c.name, c.grace)
		}
		waitForGoroutines(t, baseline, 0)
	}
}

func TestDeploymentGanttUsesConfiguredBatch(t *testing.T) {
	dep, err := New(WithModel("vgg19"), WithSpecs("VVVV"), WithNm(4), WithBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	if dep.Batch() != 16 {
		t.Fatalf("Batch() = %d, want 16", dep.Batch())
	}
	g, err := dep.Gantt(0, 10, 80)
	if err != nil {
		t.Fatal(err)
	}
	if g == "" {
		t.Fatal("empty gantt chart")
	}
	if _, err := dep.Gantt(7, 10, 80); err == nil {
		t.Error("out-of-range VW accepted")
	}
}
