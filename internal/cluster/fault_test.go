package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hetpipe/internal/fault"
	"hetpipe/internal/obs"
	"hetpipe/internal/ps"
	"hetpipe/internal/train"
)

// faultBase is the shared configuration of the fault tests: heterogeneous
// enough (3 workers, 2 shards, D=1, Nm=4) to exercise gated pulls and clock
// skew.
func faultBase(t *testing.T) Config {
	t.Helper()
	task, err := train.DefaultTask(17)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Task: task, Workers: 3, Servers: 2,
		SLocal: 3, D: 1, LR: 0.2, MaxMinibatches: 32,
	}
}

// identicalWeights fails the test unless a and b agree bit for bit.
func identicalWeights(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: weight dims %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: weights diverge at %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

func TestEmptyFaultPlanBitIdentical(t *testing.T) {
	cfg := faultBase(t)
	clean, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fault.Plan{}
	cfg.CheckpointEvery = 2
	withEmpty, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	identicalWeights(t, "empty plan", clean.FinalWeights, withEmpty.FinalWeights)
	if clean.Minibatches != withEmpty.Minibatches || clean.Pushes != withEmpty.Pushes || clean.Pulls != withEmpty.Pulls {
		t.Fatalf("empty plan changed counts: %+v vs %+v", clean, withEmpty)
	}
	if withEmpty.Crashes != 0 || withEmpty.Recoveries != 0 {
		t.Fatalf("empty plan recorded fault activity: %+v", withEmpty)
	}
}

func TestCrashRecoveryBitIdentical(t *testing.T) {
	cfg := faultBase(t)
	clean, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := fault.Parse("crash:w1:mb18:down0.01")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	cfg.CheckpointEvery = 2
	faulted, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Crashes != 1 || faulted.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", faulted.Crashes, faulted.Recoveries)
	}
	if faulted.Checkpoints == 0 {
		t.Fatal("no worker checkpoints were taken")
	}
	if faulted.ReplayedMinibatches == 0 {
		t.Fatal("recovery replayed nothing — the crash never cost any work?")
	}
	identicalWeights(t, "crash recovery", clean.FinalWeights, faulted.FinalWeights)
	matchesReference(t, "crash recovery", cfg, faulted)
	if clean.Minibatches != faulted.Minibatches || clean.Pushes != faulted.Pushes || clean.Pulls != faulted.Pulls {
		t.Fatalf("logical counts diverge: clean %d/%d/%d, faulted %d/%d/%d",
			clean.Minibatches, clean.Pushes, clean.Pulls,
			faulted.Minibatches, faulted.Pushes, faulted.Pulls)
	}
	if faulted.GlobalClock != clean.GlobalClock {
		t.Fatalf("global clock %d, want %d", faulted.GlobalClock, clean.GlobalClock)
	}
	if faulted.MaxClockDistance > cfg.D+1 {
		t.Fatalf("clock distance %d exceeds D+1=%d", faulted.MaxClockDistance, cfg.D+1)
	}
}

func TestCrashWithoutCheckpointReplaysFromScratch(t *testing.T) {
	cfg := faultBase(t)
	clean, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("crash:w0:mb20:down0.01")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan // CheckpointEvery stays 0: recovery replays from mb 1
	faulted, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Recoveries != 1 {
		t.Fatalf("recoveries=%d, want 1", faulted.Recoveries)
	}
	if faulted.ReplayedMinibatches != 19 {
		t.Fatalf("replayed %d minibatches, want 19 (crash at 20, restart at 1)", faulted.ReplayedMinibatches)
	}
	identicalWeights(t, "scratch recovery", clean.FinalWeights, faulted.FinalWeights)
	if clean.Pushes != faulted.Pushes || clean.Pulls != faulted.Pulls {
		t.Fatalf("counts diverge: %+v vs %+v", clean, faulted)
	}
}

func TestTimingFaultsConformExactly(t *testing.T) {
	task, err := train.DefaultTask(5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("slow:w0:x3,link:w1:x2,stall:s0:c2:0.005")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunConformance(context.Background(), ConformanceConfig{
		Task: task, Workers: 3, SLocal: 2, D: 1, LR: 0.2,
		MaxMinibatches: 24, Servers: 2,
		Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatalf("timing faults broke conformance:\n%s", report)
	}
}

func TestCrashConformsExactly(t *testing.T) {
	task, err := train.DefaultTask(9)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("crash:w2:mb15:down0.01")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunConformance(context.Background(), ConformanceConfig{
		Task: task, Workers: 4, SLocal: 3, D: 1, LR: 0.2,
		MaxMinibatches: 32, Servers: 2,
		Faults:          plan,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatalf("crash recovery broke conformance:\n%s", report)
	}
	if report.Crashes != 1 || report.Recoveries != 1 {
		t.Fatalf("report crashes=%d recoveries=%d, want 1/1", report.Crashes, report.Recoveries)
	}
}

func TestCrashRecoveryOverTCP(t *testing.T) {
	cfg := faultBase(t)
	clean, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("crash:w1:mb18:down0.01")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	cfg.CheckpointEvery = 2
	cfg.TCP = true
	faulted, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Recoveries != 1 {
		t.Fatalf("recoveries=%d, want 1", faulted.Recoveries)
	}
	identicalWeights(t, "TCP crash recovery", clean.FinalWeights, faulted.FinalWeights)
}

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shards.ckpt")

	// Leg 1: a short run persists its shard state.
	cfg := faultBase(t)
	cfg.MaxMinibatches = 16
	cfg.CheckpointEvery = 2
	cfg.CheckpointPath = path
	leg1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if leg1.GlobalClock == 0 {
		t.Fatal("leg 1 pushed nothing")
	}

	// Leg 2: resume from the file with a doubled budget.
	resumed := faultBase(t)
	resumed.MaxMinibatches = 32
	resumed.ResumeFrom = path
	leg2, err := Run(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if leg2.ResumedClock != leg1.GlobalClock {
		t.Fatalf("resumed at clock %d, checkpoint was at %d", leg2.ResumedClock, leg1.GlobalClock)
	}

	// The uninterrupted control run with the full budget.
	control := faultBase(t)
	control.MaxMinibatches = 32
	clean, err := Run(context.Background(), control)
	if err != nil {
		t.Fatal(err)
	}
	identicalWeights(t, "checkpoint resume", clean.FinalWeights, leg2.FinalWeights)
	matchesReference(t, "checkpoint resume", resumed, leg2)
	if leg2.GlobalClock != clean.GlobalClock {
		t.Fatalf("resumed clock %d, uninterrupted %d", leg2.GlobalClock, clean.GlobalClock)
	}
	if leg2.Pushes != clean.Pushes || leg2.Pulls != clean.Pulls || leg2.Minibatches != clean.Minibatches {
		t.Fatalf("logical counts diverge: resumed %d/%d/%d, uninterrupted %d/%d/%d",
			leg2.Minibatches, leg2.Pushes, leg2.Pulls,
			clean.Minibatches, clean.Pushes, clean.Pulls)
	}
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shards.ckpt")
	cfg := faultBase(t)
	cfg.MaxMinibatches = 16
	cfg.CheckpointPath = path
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	// Wrong worker count.
	bad := faultBase(t)
	bad.Workers = 4
	bad.ResumeFrom = path
	if _, err := Run(context.Background(), bad); err == nil {
		t.Error("resume accepted a mismatched worker count")
	}

	// Wrong task data (different seed → different initial weights would be
	// fine for logreg's zero init, so use a budget below the checkpoint
	// clock instead, which must also be rejected).
	short := faultBase(t)
	short.MaxMinibatches = 4 // 1 wave, below the checkpoint's clock
	short.ResumeFrom = path
	if _, err := Run(context.Background(), short); err == nil {
		t.Error("resume accepted a budget below the checkpoint clock")
	}

	// A garbage file.
	bogus := faultBase(t)
	bogus.ResumeFrom = filepath.Join(dir, "missing.ckpt")
	if _, err := Run(context.Background(), bogus); err == nil {
		t.Error("resume accepted a missing checkpoint file")
	}
}

// TestResumeRejectsClockSkewedCheckpoint: a checkpoint whose Clock is not its
// servers' worker clocks, or whose servers disagree on those clocks, is no
// cut. Both shapes are written as raw gob, the way a torn or hand-edited file
// reaches a reader. SaveCheckpoint and LoadCheckpoint must reject each, and a
// run resumed from one must fail well inside its deadline rather than wait in
// a gated pull for the pushes its resume point suppressed.
func TestResumeRejectsClockSkewedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shards.ckpt")
	cfg := faultBase(t)
	cfg.MaxMinibatches = 16
	cfg.CheckpointPath = path
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	shapes := map[string]func(ck *ps.Checkpoint){
		"clock ahead of the servers": func(ck *ps.Checkpoint) { ck.Clock += 3 },
		"servers disagree": func(ck *ps.Checkpoint) {
			for w := range ck.States[1].Clocks {
				ck.States[1].Clocks[w]++
			}
		},
	}
	type header struct {
		Magic   string
		Version int
	}
	for name, skew := range shapes {
		ck, err := ps.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		skew(ck)
		if err := ps.SaveCheckpoint(filepath.Join(dir, "resaved.ckpt"), ck); err == nil {
			t.Errorf("%s: SaveCheckpoint accepted it", name)
		}
		skewed := filepath.Join(dir, "skewed.ckpt")
		f, err := os.Create(skewed)
		if err != nil {
			t.Fatal(err)
		}
		enc := gob.NewEncoder(f)
		if err := enc.Encode(header{ps.CheckpointMagic, ps.CheckpointVersion}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(ck); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := ps.LoadCheckpoint(skewed); err == nil {
			t.Errorf("%s: LoadCheckpoint accepted it", name)
		}
		resumed := faultBase(t)
		resumed.MaxMinibatches = 32
		resumed.ResumeFrom = skewed
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := time.Now()
		_, err = Run(ctx, resumed)
		cancel()
		if err == nil || errors.Is(err, context.DeadlineExceeded) || time.Since(start) > 5*time.Second {
			t.Errorf("%s: resumed run returned %v after %v, want an error well inside 10s", name, err, time.Since(start))
		}
	}
}

func TestFaultPlanWorkerRangeChecked(t *testing.T) {
	cfg := faultBase(t)
	plan, err := fault.Parse("slow:w7:x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("Run accepted a fault plan naming worker 7 of 3")
	}
}

func TestObserverSeesInjectAndRecover(t *testing.T) {
	cfg := faultBase(t)
	// Slowdown and crash on the SAME worker: the recovery replay passes the
	// slowed minibatches again, and must not re-report the slowdown.
	plan, err := fault.Parse("crash:w1:mb18:down0.01,slow:w1:x2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	cfg.CheckpointEvery = 2

	var mu sync.Mutex
	kinds := map[obs.Kind]int{}
	injects := map[string]int{}
	var crashFault, recoverFault string
	cfg.Observer = func(e obs.Event) {
		mu.Lock()
		defer mu.Unlock()
		kinds[e.Kind]++
		switch e.Kind {
		case obs.KindFaultInject:
			injects[e.Fault]++
			if e.Fault == "crash:w1:mb18" {
				crashFault = e.Fault
			}
		case obs.KindRecover:
			recoverFault = e.Fault
		}
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if kinds[obs.KindFaultInject] != 2 {
		t.Fatalf("saw %d inject events, want exactly 2 (crash + slowdown once each): %v",
			kinds[obs.KindFaultInject], injects)
	}
	if injects["slow:w1:x2"] != 1 {
		t.Fatalf("slowdown reported %d times, want once despite the replay", injects["slow:w1:x2"])
	}
	if kinds[obs.KindRecover] != 1 {
		t.Fatalf("saw %d recover events, want 1", kinds[obs.KindRecover])
	}
	if crashFault != "crash:w1:mb18" {
		t.Errorf("crash inject fault = %q", crashFault)
	}
	if recoverFault != "crash:w1:mb18" {
		t.Errorf("recover fault = %q", recoverFault)
	}
	// Replay must not double-report progress: minibatch events are deduped,
	// so their count equals the logical budget.
	if got, want := kinds[obs.KindMinibatch], cfg.Workers*cfg.MaxMinibatches; got != want {
		t.Errorf("minibatch events %d, want %d (replay must not double-report)", got, want)
	}
}
