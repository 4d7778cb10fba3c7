package cluster

import (
	"context"
	"testing"

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
