package pipeline

import (
	"fmt"
	"slices"

	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
)

// Window is one measurement window of a run: how many minibatches it
// processes and how many of them the throughput measurement leaves out
// (Config.Minibatches and Config.Warmup).
type Window struct{ Minibatches, Warmup int }

// Fork is the state RunWindows saves where a shorter window stops injecting:
// the engine's queue, every device, the executor's ready rings and the
// pipeline's counters. It belongs to the caller, who hands the same Fork to
// run after run so that saving allocates nothing once it has grown; it also
// keeps the pipeline those runs simulate, re-initialised for each run's
// Config (Pipeline.Reset) on the same engine instead of built anew, and the
// scratch with which a hook-free run fast-forwards (steady). The saved state
// is deliberately not a field of Pipeline: the WSP co-simulation's pipelines
// never fork.
type Fork struct {
	pl     Pipeline
	budget int  // the window being run injects minibatches 1..budget
	saved  bool // the state below is the fork point of that window

	eng                           sim.Saved
	gpus                          []sim.SavedResource
	stages                        []vstage
	slab                          []int32
	injected, completed, inflight int

	st steady
}

// Skipped reports how many minibatches the last RunWindows on fk jumped over
// instead of simulating them, all windows together.
func (fk *Fork) Skipped() int { return fk.st.skipped }

// admit is the InjectGate of a run over several windows. The pipeline is
// configured for the longest window, so the gate is consulted for p > budget
// exactly when the window being run has a free slot and nothing left to
// inject — the first moment it differs from every longer window, and the
// moment to save: before the longer windows' injection, not after.
//
//hetlint:hotpath
func (fk *Fork) admit(p int) bool {
	if p <= fk.budget {
		return true
	}
	if !fk.saved {
		fk.saved = true
		fk.save()
	}
	return false
}

func (fk *Fork) save() {
	pl := &fk.pl
	pl.eng.Save(&fk.eng)
	fk.gpus = slices.Grow(fk.gpus[:0], pl.x.k)[:pl.x.k]
	for g, dev := range pl.x.Devices() {
		dev.Save(&fk.gpus[g])
	}
	fk.stages = append(fk.stages[:0], pl.x.stages...)
	fk.slab = append(fk.slab[:0], pl.x.slab...)
	fk.injected, fk.completed, fk.inflight = pl.injected, pl.completed, pl.inflight
}

// resume puts the pipeline back at the fork point and carries on as a run
// with the larger budget would have: the injection loop the save interrupted,
// then what was left of the completion handler it ran in — the fast-forward
// check, and after Done returns, Executor.taskDone's re-pick on GPU 0 under
// backward-first. (When the window was shorter than the in-flight cap the
// save happened in Start, outside any handler, and the re-pick finds nothing
// new.) The drain since the save left the fast-forward state alone, so a
// period confirmed before it jumps again at once.
func (fk *Fork) resume(budget int) {
	pl := &fk.pl
	pl.eng.Restore(&fk.eng)
	for g, dev := range pl.x.Devices() {
		dev.Restore(&fk.gpus[g])
	}
	copy(pl.x.stages, fk.stages)
	copy(pl.x.slab, fk.slab)
	pl.injected, pl.completed, pl.inflight = fk.injected, fk.completed, fk.inflight
	pl.finished = pl.finished[:fk.completed]
	fk.budget, fk.saved = budget, false
	pl.Poke()
	fk.settle()
	if pl.x.backFirst {
		pl.x.tryGPU(0)
	}
}

// Run is the one-shot convenience: build, start, drain, summarize.
func Run(cfg Config) (*Result, error) {
	return RunOn(sim.New(), cfg)
}

// RunOn is Run on a caller-provided engine, which is Reset first: a warm
// engine keeps its grown event arena and heap across runs, so sweeps that
// re-simulate thousands of configurations pay the allocation cost once.
// Results are identical to Run on a fresh engine. It is RunWindows over the
// one window (cfg.Minibatches, cfg.Warmup), and the Result is the caller's.
func RunOn(eng *sim.Engine, cfg Config) (*Result, error) {
	fk := new(Fork)
	var s [1]Summary
	if err := RunWindows(eng, cfg, []Window{{cfg.Minibatches, cfg.Warmup}}, fk, s[:]); err != nil {
		return nil, err
	}
	r := &Result{Summary: s[0], GPUUtil: make([]float64, fk.pl.x.k), Completions: fk.pl.finished}
	for g, dev := range fk.pl.x.Devices() {
		r.GPUUtil[g] = fk.pl.util(dev)
	}
	return r, nil
}

// RunWindows runs cfg's pipeline over each of the windows, which must ascend
// in Minibatches (cfg's own Minibatches and Warmup are not read), and fills
// one Summary per window in out, each identical to RunOn's Result for that
// window alone — in one simulation. Two runs that differ only in Minibatches
// fire the same events up to the first moment the shorter has a free slot and
// nothing left to inject, so the run saves its state there (in fk), lets the
// short window drain and summarizes it, restores, and carries on into the
// next window: the windows share their common prefix instead of each
// replaying it from t = 0.
//
// Sharing needs every window to be the same pipeline but for its length, so
// with more than one window the schedule must inject by free slot (a wave's
// size depends on how many minibatches remain) and InjectGate, OnComplete,
// TaskTime and Trace must be nil — the drained tails would reach them twice.
// One window is any Config RunOn accepts, and fk may be nil.
//
// A run with none of those four hooks fast-forwards: once its state recurs
// it jumps whole periods instead of simulating them (steady), and every
// Summary, Result and completion time is still bit for bit the one a full
// simulation gives. A hook may depend on the minibatch number, so a run with
// one never jumps: an identity TaskTime is how to simulate every minibatch.
func RunWindows(eng *sim.Engine, cfg Config, windows []Window, fk *Fork, out []Summary) error {
	if len(windows) == 0 || len(out) != len(windows) {
		return fmt.Errorf("pipeline: %d windows to run into %d results", len(windows), len(out))
	}
	for i, w := range windows {
		if w.Minibatches < 1 {
			return fmt.Errorf("pipeline: need at least one minibatch")
		}
		if w.Warmup >= w.Minibatches {
			return fmt.Errorf("pipeline: warmup %d >= total %d", w.Warmup, w.Minibatches)
		}
		if i > 0 && w.Minibatches <= windows[i-1].Minibatches {
			return fmt.Errorf("pipeline: windows must ascend, %d minibatches follows %d", w.Minibatches, windows[i-1].Minibatches)
		}
	}
	last := windows[len(windows)-1]
	cfg.Minibatches, cfg.Warmup = last.Minibatches, last.Warmup
	hookFree := cfg.InjectGate == nil && cfg.OnComplete == nil && cfg.TaskTime == nil && cfg.Trace == nil
	if len(windows) > 1 {
		switch {
		case fk == nil:
			return fmt.Errorf("pipeline: %d windows need a Fork to save into", len(windows))
		case sched.Or(cfg.Schedule).Inject() != sched.InjectSlot:
			return fmt.Errorf("pipeline: schedule %q injects by wave, whose size depends on the window: one window per run", sched.Or(cfg.Schedule).Name())
		case !hookFree:
			return fmt.Errorf("pipeline: InjectGate, OnComplete, TaskTime and Trace must be nil to run %d windows at once", len(windows))
		}
		cfg.InjectGate = fk.admit
	}
	eng.Reset()
	if fk == nil {
		fk = new(Fork) // a one-window run keeps its pipeline nowhere
	}
	pl := &fk.pl
	fk.budget, fk.saved = windows[0].Minibatches, false
	if err := pl.Reset(eng, cfg); err != nil {
		return err
	}
	if hookFree {
		pl.fk = fk
	}
	fk.st.reset(pl)
	pl.Start()
	for i, w := range windows {
		eng.SetStepLimit(uint64(w.Minibatches)*1000 + 100000)
		if i > 0 {
			if !fk.saved {
				return fmt.Errorf("pipeline: internal error: window %d drained without a fork point", i-1)
			}
			fk.resume(w.Minibatches)
		}
		if err := eng.Run(); err != nil {
			return err
		}
		var err error
		if out[i], err = pl.summary(w); err != nil {
			return err
		}
	}
	return nil
}
