package pipeline

import "hetpipe/internal/sim"

// Runner runs pipelines one after another on one kept Pipeline, re-initialised
// for each run's Config (Pipeline.Reset) instead of built anew, together with
// the scratch with which a hook-free run fast-forwards (steady). It belongs to
// the caller, who hands the same Runner to run after run so that a run
// allocates nothing once it has grown; the zero Runner is ready.
type Runner struct {
	pl Pipeline
	st steady
}

// Skipped reports how many minibatches the last Run jumped over instead of
// simulating them.
func (r *Runner) Skipped() int { return r.st.skipped }

// Run resets eng, runs cfg's pipeline on it over the Config's own window
// (Minibatches, Warmup) and summarizes it. Nothing it returns points into the
// Runner.
//
// A run with none of InjectGate, OnComplete, TaskTime and Trace fast-forwards:
// once its state recurs it jumps whole periods instead of simulating them
// (steady), and its Summary, Result and every completion time are still bit
// for bit the ones a full simulation gives. A hook may depend on the
// minibatch number, so a run with one never jumps: an identity TaskTime is how
// to simulate every minibatch.
func (r *Runner) Run(eng *sim.Engine, cfg Config) (Summary, error) {
	if err := r.start(eng, cfg); err != nil {
		return Summary{}, err
	}
	if err := eng.Run(); err != nil {
		return Summary{}, err
	}
	return r.pl.summary()
}

// start resets eng and starts cfg's pipeline on it, fast-forwarding when the
// run is hook-free.
func (r *Runner) start(eng *sim.Engine, cfg Config) error {
	eng.Reset()
	pl := &r.pl
	if err := pl.Reset(eng, cfg); err != nil {
		return err
	}
	if cfg.InjectGate == nil && cfg.OnComplete == nil && cfg.TaskTime == nil && cfg.Trace == nil {
		pl.runner = r
	}
	r.st.reset(pl)
	eng.SetStepLimit(uint64(cfg.Minibatches)*1000 + 100000)
	pl.Start()
	return nil
}

// Run is the one-shot convenience: build, start, drain, summarize.
func Run(cfg Config) (*Result, error) {
	return RunOn(sim.New(), cfg)
}

// RunOn is Run on a caller-provided engine, which is Reset first: a warm
// engine keeps its grown event arena and heap across runs, so sweeps that
// re-simulate thousands of configurations pay the allocation cost once.
// Results are identical to Run on a fresh engine. It is a fresh Runner's Run
// plus what the Summary summarizes, and the Result is the caller's.
func RunOn(eng *sim.Engine, cfg Config) (*Result, error) {
	r := new(Runner)
	s, err := r.Run(eng, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Summary: s, GPUUtil: make([]float64, r.pl.x.k), Completions: r.pl.finished}
	for g, dev := range r.pl.x.Devices() {
		res.GPUUtil[g] = r.pl.util(dev)
	}
	return res, nil
}
