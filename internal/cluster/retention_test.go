package cluster

import (
	"context"
	"path/filepath"
	"testing"

	"hetpipe/internal/fault"
	"hetpipe/internal/obs"
)

// TestWorkerKeepsBoundedWaveDeltas pins what a worker retains over a long
// checkpointed run. A pull at clock req re-adds only the local waves >= req
// and req never decreases, so every older wave delta is dead weight — kept,
// it made each checkpoint capture deep-copy the whole run so far. The run is
// brought up and trained through Run's own seams so every worker's state can
// be inspected: the observer runs on the reporting worker's goroutine, the
// only one that writes its checkpoint, and a retired minibatch follows every
// capture, so each checkpoint is seen. The same configuration then goes
// through RunConformance, which must still land on the simulator's weights
// bit for bit.
func TestWorkerKeepsBoundedWaveDeltas(t *testing.T) {
	task := testTask(t)
	const waves = 400
	cfg := Config{
		Task: task, Workers: 2, Servers: 2, SLocal: 1, D: 2, LR: 0.2,
		MaxMinibatches: waves * 2, CheckpointEvery: 5,
	}
	var r *run
	worst := make([]int, cfg.Workers)
	cfg.Observer = func(e obs.Event) {
		if e.Kind == obs.KindMinibatch {
			worst[e.VW] = max(worst[e.VW], r.workers[e.VW].ckpt.Retained())
		}
	}
	r, err := bringUp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.shutdown()
	r.train()
	if r.err != nil {
		t.Fatal(r.err)
	}

	// The last wave ends in the end-of-run drain, past the last capture point.
	wantCaptures := waves/cfg.CheckpointEvery - 1
	for _, vw := range r.workers {
		switch {
		case vw.done.Waves() != waves || vw.checkpoints != wantCaptures:
			t.Errorf("worker %d: %d pushes, %d captures, want %d and %d", vw.id, vw.done.Waves(), vw.checkpoints, waves, wantCaptures)
		case worst[vw.id] > cfg.D+2:
			t.Errorf("worker %d: a checkpoint held %d wave deltas, want at most D+2 = %d whatever the run length", vw.id, worst[vw.id], cfg.D+2)
		}
	}

	cfg.Observer = nil
	report, err := RunConformance(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatalf("%v\n%s", err, report)
	}
}

// retentionRun trains cfg through Run's seams and reports the most clock
// snapshots any shard server held at any retired minibatch, with the run's
// stats. The observer runs under the run's observer lock, so the servers
// are read while the workers keep pushing and pulling.
func retentionRun(t *testing.T, cfg Config) (worst int, st *Stats) {
	t.Helper()
	var r *run
	cfg.Observer = func(e obs.Event) {
		if e.Kind == obs.KindMinibatch {
			for _, s := range r.servers {
				worst = max(worst, s.Retained())
			}
		}
	}
	r, err := bringUp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.shutdown()
	r.train()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if st, err = r.stats(); err != nil {
		t.Fatal(err)
	}
	worst = max(worst, st.RetainedSnapshots)
	t.Logf("%d clocks, at most %d snapshots held by a server, %d at the end", st.GlobalClock+1, worst, st.RetainedSnapshots)
	return worst, st
}

// retentionBase is a run of the given number of waves, with three workers
// so that the floor is a minimum over more than a pair.
func retentionBase(t *testing.T, waves int) Config {
	return Config{
		Task: testTask(t), Workers: 3, Servers: 2, SLocal: 1, D: 2, LR: 0.2,
		MaxMinibatches: waves * 2,
	}
}

// TestServersKeepBoundedSnapshots pins what a shard server retains when no
// worker can replay from minibatch 1. Each worker's floor is its last pulled
// clock (its last checkpoint's, for a worker the plan can crash), the servers
// are released below the minimum, and what is left is the window WSP's
// distance bound allows — D+2 clocks, plus the checkpoint cadence when a
// restart point lags the live program — however long the run: 400 waves,
// so that keeping every clock and keeping a window cannot be confused.
func TestServersKeepBoundedSnapshots(t *testing.T) {
	const waves = 400
	const slack = 1 // the final-weights fold runs one clock past the last pull
	t.Run("no-crash", func(t *testing.T) {
		cfg := retentionBase(t, waves)
		worst, st := retentionRun(t, cfg)
		if bound := cfg.D + 2 + slack; worst > bound {
			t.Errorf("a server held %d snapshots of a %d-clock run, want at most D+2+%d = %d", worst, st.GlobalClock+1, slack, bound)
		}
	})
	t.Run("crash-checkpoint-every-5", func(t *testing.T) {
		cfg := retentionBase(t, waves)
		plan, err := fault.Parse("crash:w1:mb500:down0.001")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults, cfg.CheckpointEvery = plan, 5
		worst, st := retentionRun(t, cfg)
		if st.Recoveries != 1 {
			t.Fatalf("recoveries=%d, want 1", st.Recoveries)
		}
		if bound := cfg.CheckpointEvery + cfg.D + 2 + slack; worst > bound {
			t.Errorf("a server held %d snapshots of a %d-clock run, want at most 5+D+2+%d = %d", worst, st.GlobalClock+1, slack, bound)
		}
		// The replay read only retained clocks, so it lands on the
		// simulator's weights bit for bit.
		report, err := RunConformance(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := report.Err(); err != nil {
			t.Fatalf("%v\n%s", err, report)
		}
	})
}

// TestServersKeepEveryClockWhenReplayingFromScratch pins the two runs that
// must not release anything, because something in them replays from
// minibatch 1: a worker that can crash with no checkpoint cadence, and a run
// that persists shard checkpoints (a resume replays every worker).
func TestServersKeepEveryClockWhenReplayingFromScratch(t *testing.T) {
	const waves = 100
	crash := retentionBase(t, waves)
	plan, err := fault.Parse("crash:w1:mb150:down0.001")
	if err != nil {
		t.Fatal(err)
	}
	crash.Faults = plan
	persist := retentionBase(t, waves)
	persist.CheckpointEvery = 20
	persist.CheckpointPath = filepath.Join(t.TempDir(), "shards.ckpt")
	for name, cfg := range map[string]Config{"crash-checkpoint-every-0": crash, "checkpoint-path": persist} {
		t.Run(name, func(t *testing.T) {
			if cfg.KeepsEveryClock() == "" {
				t.Fatal("KeepsEveryClock gives no reason")
			}
			st, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.RetainedSnapshots != st.GlobalClock+1 {
				t.Errorf("a server held %d snapshots, want every clock 0..%d", st.RetainedSnapshots, st.GlobalClock)
			}
		})
	}
	clean := retentionBase(t, waves)
	if why := clean.KeepsEveryClock(); why != "" {
		t.Errorf("a fault-free run keeps every clock: %s", why)
	}
}
