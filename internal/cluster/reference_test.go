package cluster

import (
	"context"
	"fmt"
	"testing"

	"hetpipe/internal/fault"
	"hetpipe/internal/tensor"
	"hetpipe/internal/train"
	"hetpipe/internal/wsp"
)

// referenceFinalWeights evaluates a WSP run straight from Section 5's
// definition, with no event loop, no servers, no ring and no recycling. Both
// backends execute train.Worker, so their agreeing with each other no longer
// says that program is right; this is the independent statement of what it
// must compute, in the same floating-point association:
//
//   - minibatch m of a worker trains on the worker's local weights as they
//     stand once its own minibatches through m-Nm have been applied;
//   - applying minibatch r adds u = -lr*grad(weights r trained on) to the local
//     weights and to the open wave's sum; after the wave's last minibatch that
//     sum is the wave's delta;
//   - the clock-c snapshot is w0 plus every worker's deltas of waves below c,
//     added wave by wave and, within a wave, worker by worker;
//   - a minibatch whose gate requires a clock c the worker has not pulled yet
//     first replaces the local weights by snapshot c plus the worker's own
//     deltas of waves >= c plus its open wave's sum.
//
// Every vector is kept for the whole run. A worker's program is advanced on
// demand — a snapshot asks each worker to have applied its waves below the
// clock, which only ever needs snapshots at lower clocks — so nothing here
// has an order in time. It returns the snapshot at the run's final clock and
// the largest m-1-Nm*c any minibatch m was injected with.
func referenceFinalWeights(task train.Task, p wsp.Params, lr float64, budget int) (tensor.Vector, int) {
	type worker struct {
		local   tensor.Vector
		trained []tensor.Vector // trained[m-1]: the weights minibatch m trains on
		applied int             // minibatches applied so far
		open    tensor.Vector   // the open wave's sum
		deltas  []tensor.Vector // deltas[v]: wave v's delta
		pulled  int             // newest snapshot clock incorporated
	}
	nm := p.WaveSize()
	ws := make([]*worker, p.Workers)
	for i := range ws {
		ws[i] = &worker{local: task.InitWeights(), open: tensor.NewVector(task.Dim())}
	}
	prefix := []tensor.Vector{task.InitWeights()}
	grad := tensor.NewVector(task.Dim())
	maxStale := 0

	apply := func(id int) {
		w := ws[id]
		w.applied++
		task.Grad(w.trained[w.applied-1], train.MinibatchIndex(id, w.applied, p.Workers), grad)
		w.local.AXPY(-lr, grad)
		w.open.AXPY(-lr, grad)
		if p.IsWaveEnd(w.applied) {
			w.deltas = append(w.deltas, w.open.Clone())
			w.open.Zero()
		}
	}
	var snapshot func(c int) tensor.Vector
	// advance runs worker id's program until it has applied `until` minibatches.
	advance := func(id, until int) {
		w := ws[id]
		for w.applied < until {
			m := len(w.trained) + 1
			if m > budget { // nothing left to inject: the tail is applied in order
				apply(id)
				continue
			}
			if c := p.RequiredGlobalClock(m); c > w.pulled {
				copy(w.local, snapshot(c))
				for _, d := range w.deltas[c:] {
					w.local.AddInPlace(d)
				}
				w.local.AddInPlace(w.open)
				w.pulled = c
			}
			maxStale = max(maxStale, m-1-nm*w.pulled)
			w.trained = append(w.trained, w.local.Clone())
			if m >= nm {
				apply(id)
			}
		}
	}
	snapshot = func(c int) tensor.Vector {
		for len(prefix) <= c {
			wave := len(prefix) - 1
			next := prefix[wave].Clone()
			for id, w := range ws {
				advance(id, (wave+1)*nm)
				next.AddInPlace(w.deltas[wave])
			}
			prefix = append(prefix, next)
		}
		return prefix[c]
	}
	final := snapshot(p.CompleteWaves(budget))
	for id := range ws {
		advance(id, budget) // the staleness of minibatches past the last complete wave counts too
	}
	return final, maxStale
}

// matchesReference fails unless a live run of cfg landed on the oracle's
// weights, bit for bit, having observed the oracle's staleness.
func matchesReference(t *testing.T, label string, cfg Config, got *Stats) {
	t.Helper()
	want, wantStale := referenceFinalWeights(cfg.Task, cfg.params(), cfg.LR, cfg.MaxMinibatches)
	identicalWeights(t, label+" vs reference", got.FinalWeights, want)
	if got.MaxStaleness != wantStale {
		t.Errorf("%s: max staleness %d, reference %d", label, got.MaxStaleness, wantStale)
	}
}

// TestBackendsMatchReferenceFinalWeights holds both backends to the oracle on
// the conformance grid; TestCrashRecoveryBitIdentical and
// TestCheckpointResumeMatchesUninterrupted hold a crash-replayed and a resumed
// live run to it.
func TestBackendsMatchReferenceFinalWeights(t *testing.T) {
	for _, c := range conformanceGrid(t) {
		t.Run(c.name, func(t *testing.T) {
			sim, live, err := c.cfg.runBoth(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Task: c.cfg.Task, Workers: c.cfg.Workers, SLocal: c.cfg.SLocal, D: c.cfg.D,
				LR: c.cfg.LR, MaxMinibatches: c.cfg.MaxMinibatches}
			matchesReference(t, "sim", cfg, &Stats{FinalWeights: sim.FinalWeights, MaxStaleness: sim.MaxStaleness})
			matchesReference(t, "live", cfg, live)
		})
	}
}

// TestObservedStalenessWithinSGlobal runs D x Nm through both backends, the
// live one crash-replayed: the staleness each side observed must be the same
// number, and within the bound the paper's convergence proof assumes.
func TestObservedStalenessWithinSGlobal(t *testing.T) {
	task := testTask(t)
	for _, d := range []int{0, 1, 4} {
		for _, nm := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("D%d_Nm%d", d, nm), func(t *testing.T) {
				budget := (d+4)*nm + nm/2
				plan, err := fault.Parse(fmt.Sprintf("crash:w1:mb%d:down0.001", budget/2+1))
				if err != nil {
					t.Fatal(err)
				}
				cfg := ConformanceConfig{
					Task: task, Workers: 3, SLocal: nm - 1, D: d, LR: 0.2,
					MaxMinibatches: budget, Servers: 2,
					Faults: plan, CheckpointEvery: 2,
				}
				report, err := RunConformance(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := report.Err(); err != nil {
					t.Fatalf("%v\n%s", err, report)
				}
				if report.Recoveries != 1 {
					t.Errorf("recoveries = %d, want 1", report.Recoveries)
				}
				if report.Sim.MaxStaleness != report.Live.MaxStaleness {
					t.Errorf("staleness sim=%d live=%d", report.Sim.MaxStaleness, report.Live.MaxStaleness)
				}
				// The run is long enough to reach the bound, so it is tight.
				if report.Sim.MaxStaleness != report.SGlobal {
					t.Errorf("observed staleness %d, sglobal %d: the bound should be met exactly", report.Sim.MaxStaleness, report.SGlobal)
				}

				broken := *report
				broken.Live.MaxStaleness = report.SGlobal + 1
				if broken.Err() == nil {
					t.Error("a run over sglobal reported CONFORMANT")
				}
			})
		}
	}
}
