package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hetpipe/internal/fault"
	"hetpipe/internal/obs"
	"hetpipe/internal/train"
)

// TestWaveFramesFollowThePredicate walks pullAfterPush's inputs one at a
// time. A wave's push and the gated pull after it travel as one frame per
// shard exactly when nothing observable lies between them; each row puts one
// thing there — a crash due at the gated minibatch, a checkpoint falling due,
// a stall, emulated compute time, a slowdown first reported there, a resumed
// prefix — and says, from the protocol arithmetic alone, how many exchanges
// each worker must then make and how many snapshot pulls the shards must
// serve. Every row runs over TCP, must land on the fault-free simulator's
// weights bit for bit (conformance demands it), and must report Push
// before Pull at every gate. An always-fuse loop fails the crash row (it
// pulls before it crashes: one pull too many) and the checkpoint, stall,
// compute-time and slowdown rows (too few frames).
func TestWaveFramesFollowThePredicate(t *testing.T) {
	task, err := train.DefaultTask(13)
	if err != nil {
		t.Fatal(err)
	}
	// Wave size 4, so worker waves end at minibatches 4, 8, ...; C = 10 waves;
	// waves D+1 = 2 .. 9 are gated, each at the minibatch after the one that
	// pushes its predecessor: 8 gated pulls per worker, all of which fuse when
	// nothing intervenes.
	const workers, servers, slocal, d, budget = 3, 2, 3, 1, 40
	const waves, gated = budget / (slocal + 1), budget/(slocal+1) - (d + 1)
	base := Config{
		Task: task, Workers: workers, Servers: servers, SLocal: slocal, D: d,
		LR: 0.2, MaxMinibatches: budget, TCP: true,
	}
	sim, err := train.RunWSP(train.WSPConfig{
		Task: task, Workers: workers, SLocal: slocal, D: d, LR: base.LR,
		MaxMinibatches: budget, EvalEvery: workers * budget,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A first leg for the resume row: three waves, checkpointed at the end.
	ckpt := filepath.Join(t.TempDir(), "shards.ckpt")
	leg1 := base
	leg1.MaxMinibatches, leg1.CheckpointPath = 3*(slocal+1), ckpt
	if _, err := Run(context.Background(), leg1); err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name   string
		faults string
		edit   func(*Config)
		// resumed is how many leading waves came from a checkpoint file: their
		// pushes are neither sent nor reported.
		resumed int
		// exchanges[w] is how many times worker w talks to the shards: each
		// costs one frame per shard. pulls is the total of snapshot pulls the
		// workers make, replays included: each is one pull op per shard.
		exchanges [workers]int
		pulls     int
	}{
		{name: "nothing intervenes",
			exchanges: [workers]int{waves, waves, waves}, pulls: workers * gated},
		{name: "degraded link, no step time: every sleep is zero", faults: "link:w1:x3",
			exchanges: [workers]int{waves, waves, waves}, pulls: workers * gated},
		{name: "slowdown reported before the first push", faults: "slow:w0:x2",
			exchanges: [workers]int{waves, waves, waves}, pulls: workers * gated},
		// Minibatch 20 is wave 4's gated end; worker 1 pushes wave 3 alone at
		// 19 and dies at 20 before pulling. It replays from scratch with waves
		// 0..3 suppressed, so the pulls of waves 2..4 (three) go alone, and
		// waves 2, 3 are pulled a second time.
		{name: "crash due at the gated minibatch", faults: "crash:w1:mb20:down0.001",
			exchanges: [workers]int{waves, waves + 3, waves}, pulls: workers*gated + 2},
		// Same crash with a checkpoint every 2 waves. On every worker the
		// checkpoints due after 2, 4, 6, 8 waves each split a gated pull
		// (waves 2, 4, 6, 8) from its push. Worker 1 dies before it can take
		// the one after 4 waves, restarts from the one after 2 — taken before
		// wave 2's pull — with waves 2 and 3 suppressed, and so pulls waves 2
		// and 3 again, both alone.
		{name: "crash and checkpoint cadence", faults: "crash:w1:mb20:down0.001",
			edit:      func(c *Config) { c.CheckpointEvery = 2 },
			exchanges: [workers]int{waves + 4, waves + 4 + 2, waves + 4}, pulls: workers*gated + 2},
		// Checkpoints fall due after 3, 6, 9 waves: the pulls of waves 3, 6, 9.
		{name: "checkpoint cadence lands between push and pull",
			edit:      func(c *Config) { c.CheckpointEvery = 3 },
			exchanges: [workers]int{waves + 3, waves + 3, waves + 3}, pulls: workers * gated},
		// The stall holds back every worker's push of wave 3 (clock 4).
		{name: "stall before a push", faults: "stall:s0:c4:0.002",
			exchanges: [workers]int{waves + 1, waves + 1, waves + 1}, pulls: workers * gated},
		{name: "emulated compute time: nothing fuses",
			edit:      func(c *Config) { c.StepTime = 100 * time.Microsecond },
			exchanges: [workers]int{waves + gated, waves + gated, waves + gated}, pulls: workers * gated},
		// Worker 2 is slow from minibatch 24 on — wave 5's gated end — and
		// says so there, between the push of wave 4 and that pull.
		{name: "slowdown first reported at a gated minibatch", faults: "slow:w2:x2:mb24-",
			exchanges: [workers]int{waves, waves, waves + 1}, pulls: workers * gated},
		// Waves 0..2 come from the checkpoint: 7 pushes are sent (and
		// reported), and the pulls of waves 2 and 3 follow suppressed pushes,
		// so they go alone. The restored servers' counters carry on from the
		// first leg's: one gated pull per worker and Run's final read.
		{name: "resumed from a checkpoint", resumed: 3,
			edit:      func(c *Config) { c.ResumeFrom = ckpt },
			exchanges: [workers]int{waves - 3 + 2, waves - 3 + 2, waves - 3 + 2}, pulls: workers*gated + workers + 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := base
			if row.faults != "" {
				if cfg.Faults, err = fault.Parse(row.faults); err != nil {
					t.Fatal(err)
				}
			}
			if row.edit != nil {
				row.edit(&cfg)
			}
			var mu sync.Mutex
			var stream [workers][]string
			cfg.Observer = func(e obs.Event) {
				mu.Lock()
				defer mu.Unlock()
				switch e.Kind {
				case obs.KindPush:
					stream[e.VW] = append(stream[e.VW], fmt.Sprintf("push %d", e.Wave))
				case obs.KindPull:
					stream[e.VW] = append(stream[e.VW], fmt.Sprintf("pull %d", e.Clock))
				}
			}
			got, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			identicalWeights(t, "against the simulator", sim.FinalWeights, got.FinalWeights)
			if got.Minibatches != sim.Minibatches || got.Pushes != sim.Pushes || got.Pulls != sim.Pulls {
				t.Errorf("logical counts %d/%d/%d, simulator %d/%d/%d",
					got.Minibatches, got.Pushes, got.Pulls, sim.Minibatches, sim.Pushes, sim.Pulls)
			}
			if got.MaxClockDistance > d+1 || got.ShardMalformed != 0 {
				t.Errorf("clock distance %d, %d malformed requests", got.MaxClockDistance, got.ShardMalformed)
			}
			// One frame per shard per exchange, plus NewSharded's Meta query.
			frames := 0
			for _, n := range row.exchanges {
				frames += servers * (n + 1)
			}
			if got.ShardFrames != uint64(frames) {
				t.Errorf("shard servers read %d frames, the predicate says %d", got.ShardFrames, frames)
			}
			if want := uint64(servers * row.pulls); got.ShardPulls != want {
				t.Errorf("shard servers served %d snapshot pulls, want %d", got.ShardPulls, want)
			}
			// Each worker reports, once each and in this order: the ungated
			// pushes, then for every gated wave k its pull (clock k-D) between
			// the pushes of waves k-1 and k.
			for w := range stream {
				var want []string
				for k := 0; k < waves; k++ {
					if k > d {
						want = append(want, fmt.Sprintf("pull %d", k-d))
					}
					if k >= row.resumed {
						want = append(want, fmt.Sprintf("push %d", k))
					}
				}
				if fmt.Sprint(stream[w]) != fmt.Sprint(want) {
					t.Errorf("worker %d reported\n %v\nwant\n %v", w, stream[w], want)
				}
			}
		})
	}
}
