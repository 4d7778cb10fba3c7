package cluster

import (
	"context"
	"sync"
	"testing"

	"hetpipe/internal/obs"
	"hetpipe/internal/ps"
	"hetpipe/internal/train"
)

// TestWorkerKeepsBoundedWaveDeltas pins what a worker retains over a long
// checkpointed run. A pull at clock req re-adds only the local waves >= req
// and req never decreases, so every older wave delta is dead weight — kept,
// it made each checkpoint capture deep-copy the whole run so far. The worker
// loops are driven directly here (in-process shards, the same env Run builds)
// so every capture can be inspected; the same configuration then goes through
// RunConformance, which must still land on the simulator's weights bit for
// bit.
func TestWorkerKeepsBoundedWaveDeltas(t *testing.T) {
	task := testTask(t)
	const waves = 400
	cfg := Config{
		Task: task, Workers: 2, Servers: 2, SLocal: 1, D: 2, LR: 0.2,
		MaxMinibatches: waves * 2, CheckpointEvery: 5,
	}
	space, err := newShardSpace(task.Dim(), 4*cfg.Servers)
	if err != nil {
		t.Fatal(err)
	}
	placement, err := ps.RoundRobin(space.Keys(), cfg.Servers)
	if err != nil {
		t.Fatal(err)
	}
	chunked := space.Split(task.InitWeights())
	backends := make([]ps.Backend, cfg.Servers)
	for i := range backends {
		s, err := ps.NewServer(cfg.Workers)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, key := range placement.KeysOn(i) {
			if err := s.Register(key, chunked[key]); err != nil {
				t.Fatal(err)
			}
		}
		backends[i] = ps.AdaptServer(s)
	}
	fp, err := cfg.Faults.Materialize(cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}

	// The last wave ends in the end-of-run drain, past the last capture point.
	wantCaptures := waves/cfg.CheckpointEvery - 1
	var wg sync.WaitGroup
	for id := 0; id < cfg.Workers; id++ {
		sh, err := ps.NewSharded(placement, backends)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := train.NewWorker(task, id, cfg.params(), cfg.LR)
		if err != nil {
			t.Fatal(err)
		}
		env := &workerEnv{
			cfg: cfg, id: id, space: space, sh: sh, emit: func(obs.Event) {},
			rec: &workerRec{ckpt: fresh, cur: fp.Cursor(id)}, stall: func(int) float64 { return 0 },
		}
		captures, worst := 0, 0
		env.notifyCkpt = func() { // runs on the worker's goroutine, right after each capture
			captures++
			worst = max(worst, env.rec.ckpt.Retained())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			done, err := env.run()
			switch {
			case err != nil:
				t.Errorf("worker %d: %v", id, err)
			case done.Waves() != waves || captures != wantCaptures:
				t.Errorf("worker %d: %d pushes, %d captures, want %d and %d", id, done.Waves(), captures, waves, wantCaptures)
			case worst > cfg.D+2:
				t.Errorf("worker %d: a checkpoint held %d wave deltas, want at most D+2 = %d whatever the run length", id, worst, cfg.D+2)
			}
		}()
	}
	wg.Wait()

	report, err := RunConformance(context.Background(), ConformanceConfig{
		Task: task, Workers: cfg.Workers, SLocal: cfg.SLocal, D: cfg.D, LR: cfg.LR,
		MaxMinibatches: cfg.MaxMinibatches, Servers: cfg.Servers,
		CheckpointEvery: cfg.CheckpointEvery, Tolerance: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatalf("%v\n%s", err, report)
	}
}
