package cluster

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"context"
	"hetpipe/internal/obs"
	"strings"
	"testing"

	"hetpipe/internal/ps"
	"hetpipe/internal/tensor"
	"hetpipe/internal/train"
	"hetpipe/internal/wsp"
)

func testTask(t *testing.T) *train.LogReg {
	t.Helper()
	lt, err := train.DefaultTask(21)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

func TestShardSpaceSplitJoinRoundTrip(t *testing.T) {
	s, err := newShardSpace(11, 4)
	if err != nil {
		t.Fatal(err)
	}
	v := tensor.NewVector(11)
	for i := range v {
		v[i] = float64(i)
	}
	// The chunks, taken by name in key order, are the vector again; and the
	// ordered views alias the same storage.
	var back tensor.Vector
	chunks, views := s.Split(v), make([]tensor.Vector, len(s.Keys()))
	s.SplitInto(v, views)
	for i, k := range s.Keys() {
		if len(views[i]) != len(chunks[k]) || &views[i][0] != &chunks[k][0] {
			t.Fatalf("chunk %s: SplitInto and Split disagree", k)
		}
		back = append(back, chunks[k]...)
	}
	if len(back) != len(v) {
		t.Fatalf("chunks hold %d parameters of %d", len(back), len(v))
	}
	for i := range v {
		if back[i] != v[i] {
			t.Fatalf("round trip diverges at %d: %g vs %g", i, back[i], v[i])
		}
	}
	// More chunks than parameters degrades gracefully.
	if _, err := newShardSpace(3, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := newShardSpace(0, 1); err == nil {
		t.Error("empty vector accepted")
	}
}

func TestLiveRunCountsAndDistanceBound(t *testing.T) {
	lt := testTask(t)
	const workers, slocal, d, maxMB = 4, 2, 1, 36
	stats, err := Run(context.Background(), Config{
		Task: lt, Workers: workers, Servers: 2, SLocal: slocal, D: d,
		LR: 0.2, MaxMinibatches: maxMB,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := wsp.Params{SLocal: slocal, D: d, Workers: workers}
	if want := workers * maxMB; stats.Minibatches != want {
		t.Errorf("minibatches = %d, want %d", stats.Minibatches, want)
	}
	if want := workers * params.CompleteWaves(maxMB); stats.Pushes != want {
		t.Errorf("pushes = %d, want %d", stats.Pushes, want)
	}
	if want := workers * params.GatedPulls(maxMB); stats.Pulls != want {
		t.Errorf("pulls = %d, want %d", stats.Pulls, want)
	}
	if want := params.CompleteWaves(maxMB); stats.GlobalClock != want {
		t.Errorf("global clock = %d, want %d", stats.GlobalClock, want)
	}
	if stats.MaxClockDistance > d+1 {
		t.Errorf("clock distance %d exceeds D+1=%d", stats.MaxClockDistance, d+1)
	}
	// The model actually learned on the live path.
	if acc := lt.Accuracy(stats.FinalWeights); acc < 0.6 {
		t.Errorf("live accuracy = %.3f, want > 0.6", acc)
	}
}

// TestServerClocksAreMinAndMax: a run's global clock is the slowest shard's,
// its clock distance the largest any shard saw, whichever servers those are.
func TestServerClocksAreMinAndMax(t *testing.T) {
	// pushes[i] lists the workers pushing to server i, in order.
	pushes := [][]int{{0, 1, 0, 1, 0, 1}, {0}, {0, 0, 1, 1}}
	servers := make([]*ps.Server, len(pushes))
	for i, ws := range pushes {
		s, err := ps.NewServer(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register("k", []float64{0}); err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			if _, err := s.Exchange(&ps.Push{Worker: w, Vecs: []tensor.Vector{{1}}}, nil); err != nil {
				t.Fatal(err)
			}
		}
		servers[i] = s
	}
	// Server 0: clock 3, distance 1. Server 1: clock 0, distance 1. Server
	// 2: clock 2, distance 2.
	if global, distance := serverClocks(servers); global != 0 || distance != 2 {
		t.Fatalf("serverClocks = clock %d, distance %d; want 0 and 2", global, distance)
	}
}

func TestLiveRunDeterministicAcrossSchedules(t *testing.T) {
	// Goroutine scheduling varies run to run; the trajectory must not.
	lt := testTask(t)
	cfg := Config{
		Task: lt, Workers: 3, Servers: 2, SLocal: 1, D: 2,
		LR: 0.25, MaxMinibatches: 24,
	}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.FinalWeights {
		if a.FinalWeights[i] != b.FinalWeights[i] {
			t.Fatalf("live runs diverge at %d: %g vs %g", i, a.FinalWeights[i], b.FinalWeights[i])
		}
	}
	if a.Pulls != b.Pulls || a.Pushes != b.Pushes {
		t.Errorf("counts diverge across runs: %d/%d vs %d/%d", a.Pushes, a.Pulls, b.Pushes, b.Pulls)
	}
}

func TestLiveRunValidation(t *testing.T) {
	lt := testTask(t)
	bad := []Config{
		{Workers: 1, Servers: 1, LR: 0.1, MaxMinibatches: 1},           // nil task
		{Task: lt, Workers: 0, Servers: 1, LR: 0.1, MaxMinibatches: 1}, // workers
		{Task: lt, Workers: 1, Servers: 0, LR: 0.1, MaxMinibatches: 1}, // servers
		{Task: lt, Workers: 1, Servers: 1, LR: 0, MaxMinibatches: 1},   // lr
		{Task: lt, Workers: 1, Servers: 1, LR: 0.1, MaxMinibatches: 0}, // budget
		{Task: lt, Workers: 1, Servers: 1, SLocal: -1, LR: 0.1, MaxMinibatches: 1},
	}
	for i, cfg := range bad {
		_, err := Run(context.Background(), cfg)
		if err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, cerr := RunConformance(context.Background(), cfg); cerr == nil {
			t.Errorf("bad config %d accepted by RunConformance", i)
		} else if !strings.HasSuffix(cerr.Error(), err.Error()) {
			// The simulator half may add its name; the cause must be Run's.
			t.Errorf("bad config %d: RunConformance says %q, Run %q", i, cerr, err)
		}
	}
	// A negative chunk count is refused before either half runs, so both
	// give the same text.
	cfg := Config{Task: lt, Workers: 1, Servers: 1, LR: 0.1, MaxMinibatches: 1, Chunks: -1}
	_, err := Run(context.Background(), cfg)
	_, cerr := RunConformance(context.Background(), cfg)
	if err == nil || cerr == nil || cerr.Error() != err.Error() {
		t.Errorf("Chunks -1: Run says %v, RunConformance %v; want the same error", err, cerr)
	}
}

func TestLiveRunShortBudgetNeverPulls(t *testing.T) {
	// A run shorter than D+1 waves has no gated wave-end: no worker ever
	// blocks, and the final weights are just the pushed-sum of local SGD.
	lt := testTask(t)
	stats, err := Run(context.Background(), Config{
		Task: lt, Workers: 2, Servers: 1, SLocal: 0, D: 0,
		LR: 0.2, MaxMinibatches: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Minibatches != 2 {
		t.Errorf("minibatches = %d, want 2", stats.Minibatches)
	}
	if stats.Pulls != 0 {
		t.Errorf("pulls = %d, want 0 (run shorter than D+1 waves)", stats.Pulls)
	}
}

// brokenTask reports a dimension its weights cannot satisfy, to exercise the
// setup error path.
type brokenTask struct{ *train.LogReg }

func (b brokenTask) Dim() int { return 0 }

func TestLiveRunSetupErrors(t *testing.T) {
	lt := testTask(t)
	if _, err := Run(context.Background(), Config{
		Task: brokenTask{lt}, Workers: 1, Servers: 1, LR: 0.1, MaxMinibatches: 1,
	}); err == nil || !strings.Contains(err.Error(), "empty parameter vector") {
		t.Errorf("broken task error = %v", err)
	}
}

func TestLiveRunContextCancellation(t *testing.T) {
	lt := testTask(t)

	// Pre-cancelled: nothing starts.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := Run(pre, Config{
		Task: lt, Workers: 2, Servers: 1, SLocal: 1, D: 0,
		LR: 0.2, MaxMinibatches: 8,
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Run = %v, want context.Canceled", err)
	}

	// Cancelled mid-run, for both transports: the run must return
	// ctx.Err() with every worker goroutine and serve loop reaped.
	for _, tcp := range []bool{false, true} {
		name := "inprocess"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := Run(ctx, Config{
					Task: lt, Workers: 3, Servers: 2, SLocal: 1, D: 0,
					LR: 0.2, MaxMinibatches: 1_000_000, TCP: tcp,
				})
				errc <- err
			}()
			time.Sleep(30 * time.Millisecond)
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Run(cancelled) = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled Run did not return")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline+2 {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d > baseline %d",
						runtime.NumGoroutine(), baseline)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

func TestLiveRunObserverStream(t *testing.T) {
	lt := testTask(t)
	const workers, slocal, d, maxMB = 3, 1, 1, 20
	var mu sync.Mutex
	counts := map[obs.Kind]int{}
	stats, err := Run(context.Background(), Config{
		Task: lt, Workers: workers, Servers: 2, SLocal: slocal, D: d,
		LR: 0.2, MaxMinibatches: maxMB,
		Observer: func(e obs.Event) {
			if e.Backend != "live" {
				t.Errorf("event backend = %q, want live", e.Backend)
			}
			mu.Lock()
			counts[e.Kind]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[obs.KindMinibatch] != stats.Minibatches {
		t.Errorf("minibatch events = %d, want %d", counts[obs.KindMinibatch], stats.Minibatches)
	}
	if counts[obs.KindPush] != stats.Pushes {
		t.Errorf("push events = %d, want %d", counts[obs.KindPush], stats.Pushes)
	}
	if counts[obs.KindPull] != stats.Pulls {
		t.Errorf("pull events = %d, want %d", counts[obs.KindPull], stats.Pulls)
	}
}

// TestTCPFinalStateMatchesInProcessTwin pins the final read of a TCP run:
// with a second P, the last worker returns and Run samples the servers at
// once, so a push answered before its commit (as the wire once did) would
// leave the clock one short about one run in fifty on the host this was
// written on. The test repeats 800 times (50 under -short): every
// loopback-TCP run must end at the clock and weights of its in-process twin.
func TestTCPFinalStateMatchesInProcessTwin(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	task, err := train.DefaultMLPTask(7)
	if err != nil {
		t.Fatal(err)
	}
	// The shape of Train on the mini cluster: two virtual workers, one shard
	// host per node.
	cfg := Config{Task: task, Workers: 2, Servers: 2, SLocal: 3, D: 1, LR: 0.2, MaxMinibatches: 24}
	twin, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TCP = true
	runs := 800
	if testing.Short() {
		runs = 50
	}
	for i := 0; i < runs; i++ {
		got, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.GlobalClock != twin.GlobalClock {
			t.Fatalf("run %d: global clock %d, in-process twin %d", i, got.GlobalClock, twin.GlobalClock)
		}
		identicalWeights(t, "TCP final state", twin.FinalWeights, got.FinalWeights)
	}
}
