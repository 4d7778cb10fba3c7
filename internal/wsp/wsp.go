// Package wsp implements the Wave Synchronous Parallel model (Section 5),
// the paper's parameter-synchronization scheme for data parallelism over
// pipelined virtual workers.
//
// A wave is a sequence of slocal+1 minibatches processed concurrently inside
// one virtual worker; within a wave a later minibatch never waits for an
// earlier one (local staleness threshold slocal = Nm-1). At the end of every
// wave — one clock — the virtual worker pushes a single aggregated update to
// the parameter server, cutting push traffic by a factor of the wave size.
// The parameter server advances the global clock to c+1 once every virtual
// worker has pushed wave c. A virtual worker may run ahead of the global
// clock by at most D waves (the clock distance bound): the *last* minibatch
// of wave w may only start once the global clock has reached w-D, i.e. every
// other virtual worker has pushed wave w-D-1. While blocked, the virtual
// worker still processes the first slocal minibatches of the next wave —
// pipelined execution overlaps the wait, which is why WSP's idle time is a
// small fraction of its waiting time (Section 8.4).
//
// The package is a pure protocol state machine: the discrete-event
// co-simulation (internal/core) drives its Coordinator, the numeric worker
// program (internal/train) and the live runtime (internal/cluster) compute
// with its Params. Clocks is the one ledger of per-worker clocks: the
// global clock (their minimum) and the clock distance (their max − min,
// bounded by D+1) are computed there and nowhere else — by the Coordinator,
// the parameter servers (internal/ps), the timing-free numerics
// (internal/train) and the live runtime's retention floors — so protocol
// invariants are tested once, here.
package wsp

import "fmt"

// Params fixes a WSP configuration.
type Params struct {
	// SLocal is the local staleness threshold, Nm-1.
	SLocal int
	// D is the clock distance bound between the fastest and slowest
	// virtual workers. D=0 gives BSP-like behaviour with pipelined overlap.
	D int
	// Workers is the number of virtual workers, N.
	Workers int
}

// Validate checks the configuration.
func (p Params) Validate() error {
	if p.SLocal < 0 {
		return fmt.Errorf("wsp: slocal must be >= 0, got %d", p.SLocal)
	}
	if p.D < 0 {
		return fmt.Errorf("wsp: D must be >= 0, got %d", p.D)
	}
	if p.Workers < 1 {
		return fmt.Errorf("wsp: need at least one worker, got %d", p.Workers)
	}
	return nil
}

// WaveSize is the number of minibatches per wave, slocal+1 = Nm.
func (p Params) WaveSize() int { return p.SLocal + 1 }

// SGlobal is the global staleness bound of Section 5:
// (D+1)*(slocal+1) + slocal - 1. A minibatch beyond the initial window must
// see every other worker's updates up to minibatch p-(SGlobal+1).
func (p Params) SGlobal() int { return (p.D+1)*(p.SLocal+1) + p.SLocal - 1 }

// Wave reports the 0-based wave index of 1-based minibatch p.
func (p Params) Wave(mb int) int {
	if mb < 1 {
		panic(fmt.Sprintf("wsp: minibatch numbers are 1-based, got %d", mb))
	}
	return (mb - 1) / p.WaveSize()
}

// posInWave reports the 0-based position of minibatch mb within its wave.
func (p Params) posInWave(mb int) int { return (mb - 1) % p.WaveSize() }

// IsWaveEnd reports whether minibatch mb is the last of its wave — the one
// whose start is gated on the global clock.
func (p Params) IsWaveEnd(mb int) bool { return p.posInWave(mb) == p.SLocal }

// RequiredGlobalClock reports the minimum global clock needed before
// minibatch mb may start: the last minibatch of wave w requires global clock
// >= w-D (every worker has pushed wave w-D-1); all other minibatches are
// admitted by pipelining. Results <= 0 mean "no requirement".
func (p Params) RequiredGlobalClock(mb int) int {
	if !p.IsWaveEnd(mb) {
		return 0
	}
	req := p.Wave(mb) - p.D
	if req < 0 {
		return 0
	}
	return req
}

// CompleteWaves reports how many full waves fit in a per-worker budget of
// maxMB minibatches — the number of pushes a worker performs over the run.
func (p Params) CompleteWaves(maxMB int) int { return maxMB / p.WaveSize() }

// GatedPulls reports how many lazy pulls a worker performs over a budget of
// maxMB minibatches: one per wave-end whose required global clock is
// positive. Waves 0..D need no pull, so the count is CompleteWaves-(D+1),
// clamped at zero. Both the simulator and the live sharded-PS runtime must
// match this number exactly — the conformance harness asserts it.
func (p Params) GatedPulls(maxMB int) int {
	n := p.CompleteWaves(maxMB) - (p.D + 1)
	// A partial trailing wave can still contain a gated wave-end only if it
	// is complete, which it is not by definition; wave-ends beyond the last
	// complete wave exceed maxMB.
	if n < 0 {
		return 0
	}
	return n
}

// Coordinator is the WSP protocol state machine: a Clocks ledger of the
// workers' pushed-wave counts (its GlobalClock, Clock and MaxClockDistance
// are the ledger's) plus the protocol ordering rules, which it enforces by
// panicking on out-of-order starts and pushes — always caller bugs.
type Coordinator struct {
	Clocks
	params Params
	// started[w] is the highest minibatch worker w has started.
	started []int
}

// NewCoordinator validates p and returns a fresh coordinator.
func NewCoordinator(p Params) (*Coordinator, error) {
	c := new(Coordinator)
	if err := c.Reset(p); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset validates p and returns c to NewCoordinator(p)'s state in the storage
// it already has; on error c is unchanged.
func (c *Coordinator) Reset(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.params = p
	c.Clocks.Reset(p.Workers, 0, 0)
	c.started = append(c.started[:0], make([]int, p.Workers)...)
	return nil
}

// CanStart reports whether worker w may start minibatch mb now. Minibatches
// must be started in order; gating applies only to wave-end minibatches.
func (c *Coordinator) CanStart(w, mb int) bool {
	if mb != c.started[w]+1 {
		panic(fmt.Sprintf("wsp: worker %d starting minibatch %d out of order (last started %d)",
			w, mb, c.started[w]))
	}
	return c.GlobalClock() >= c.params.RequiredGlobalClock(mb)
}

// Start records that worker w started minibatch mb. It panics if the gate
// would have refused — callers must consult CanStart first.
func (c *Coordinator) Start(w, mb int) {
	if !c.CanStart(w, mb) {
		panic(fmt.Sprintf("wsp: worker %d started gated minibatch %d (global clock %d < %d)",
			w, mb, c.GlobalClock(), c.params.RequiredGlobalClock(mb)))
	}
	c.started[w] = mb
}

// Push records that worker w pushed the aggregated update of its next wave
// and returns the worker's new clock. Pushing wave c requires having started
// (and by protocol completed) all its minibatches.
func (c *Coordinator) Push(w int) int {
	wave := c.Clock(w) // the wave being pushed
	lastMB := (wave + 1) * c.params.WaveSize()
	if c.started[w] < lastMB {
		panic(fmt.Sprintf("wsp: worker %d pushing wave %d before starting minibatch %d", w, wave, lastMB))
	}
	return c.Clocks.Push(w)
}
