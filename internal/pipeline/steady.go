package pipeline

import (
	"math/bits"
	"slices"

	"hetpipe/internal/sim"
)

// lags is how far back a hook-free run looks for its own state: periods of up
// to lags completions are found.
const lags = 64

// steady is a hook-free run's fast-forward state, kept in its Runner.
//
// A hook-free pipeline is a deterministic function of its state relative to
// (now, completed) — every pending event's time to go and payload, in firing
// order, every device's job in service and queue, the ready rings, the
// injection counters and the open wave, with minibatch numbers less
// completed and instants less now (Runner.state). Its time table is in
// multiples of sim.Quantum, so below sim.Horizon every time it computes is
// exact, and a state shifted by (T, P) evolves exactly as the original,
// shifted by (T, P). If the state after completion c+P equals the one after
// completion c, the run is periodic from c on: every P completions take T
// seconds, add the same busy time to each device, and leave the same
// relative state. The run then jumps j whole periods at once — shifting every
// pending event, device, ring, counter and busy total by (j*T, j*P) and
// writing the skipped completion times — and simulates only the rest: the
// jump stops at least a period and the in-flight cap short of the window's
// end (Config.Minibatches), so the last injections, a shortened gpipe wave
// and the drain are simulated as they always were.
//
// Detection: after each completion the relative state is hashed into a ring
// of the last lags completions — the pending events by sim.Engine.StateHash,
// which needs no ordering, the rest as the words state builds into cur. A hash
// equal to the one P completions back is only a hint; the whole state, events
// in firing order, is kept (snap) and compared word for word P completions
// later, and only that exact match confirms the period.
type steady struct {
	hashes [lags]uint32 // hashes[c%lags]: the hash of the state after completion c

	// A candidate: the state after completion cand was snap, at clock at,
	// and should recur lag completions later; dev holds each device's busy
	// time and jobs served then, and once confirmed, per period.
	cand, lag int
	at        sim.Time
	cur, snap []uint64
	dev       []devMark

	period  int      // confirmed: P completions...
	span    sim.Time // ...take T seconds
	skipped int      // minibatches jumped over this run
}

type devMark struct {
	busy   sim.Duration
	served uint64
}

// reset forgets the last run and, if pl fast-forwards, sizes the scratch for
// its states, so that a run allocates the same whether or not, and wherever,
// it finds a period. Every minibatch in flight is in one place — a job queued
// or in service (three words), a transfer pending (four, only where receives
// overlap), a ring entry (one) — and every GPU adds at most nine (its queue
// header, service start and job, and the completion event), every ring pair
// two, the in-flight count one and the wave four.
func (st *steady) reset(pl *Pipeline) {
	st.hashes = [lags]uint32{}
	st.cand, st.period, st.skipped = 0, 0, 0
	if pl.runner == nil {
		return
	}
	n := 1 + 9*pl.x.k + 2*len(pl.x.stages) + 3*pl.nm
	if pl.x.overlap {
		n += pl.nm
	}
	if pl.wave {
		n += 4
	}
	if cap(st.cur) < n || cap(st.snap) < n {
		buf := make([]uint64, 2*n)
		st.cur, st.snap = buf[:0:n], buf[n:n:2*n]
	}
	st.dev = slices.Grow(st.dev[:0], pl.x.k)
}

// settle is the fast-forward step after a completion's injections: jump if a
// period is confirmed, else record the state and look for one.
//
//hetlint:hotpath
func (r *Runner) settle() {
	st, pl := &r.st, &r.pl
	if st.period > 0 {
		r.jump()
		return
	}
	c, base, stamped := pl.completed, int32(pl.completed), pl.x.stamped()
	st.cur = r.state(st.cur[:0])
	h := hashWords(st.cur) ^ pl.eng.StateHash(stamped, base)
	h32 := uint32(h ^ h>>32)
	full := false // st.cur holds the pending events too
	// A candidate that comes due is confirmed or dropped before another is
	// looked for.
	if st.cand > 0 && c == st.cand+st.lag {
		if st.cur, full = pl.eng.AppendState(st.cur, stamped, base), true; slices.Equal(st.cur, st.snap) {
			st.period, st.span = st.lag, pl.eng.Now()-st.at
			for g, dev := range pl.x.Devices() {
				m := &st.dev[g]
				m.busy, m.served = dev.BusyTime()-m.busy, dev.Served()-m.served
			}
			r.jump()
			return
		}
		st.cand = 0
	}
	for lag := 1; st.cand == 0 && lag <= min(c-1, lags); lag++ {
		if st.hashes[(c-lag)%lags] == h32 {
			if !full {
				st.cur = pl.eng.AppendState(st.cur, stamped, base)
			}
			st.cand, st.lag, st.at = c, lag, pl.eng.Now()
			st.snap, st.cur = st.cur, st.snap
			r.st.dev = r.st.dev[:0]
			for _, dev := range pl.x.Devices() {
				r.st.dev = append(r.st.dev, devMark{dev.BusyTime(), dev.Served()})
			}
		}
	}
	st.hashes[c%lags] = h32
}

// state appends the pipeline's state relative to (now, completed) to dst, but
// for the engine's pending events: sim.Engine.StateHash folds those into the
// hash without ordering them, and AppendState adds them in firing order to the
// states settle compares. The wave fields are state only under wave
// injection, where they move; no gate is waiting, since a hook-free run has
// none.
func (r *Runner) state(dst []uint64) []uint64 {
	pl := &r.pl
	base := int32(pl.completed)
	dst = append(dst, uint64(pl.injected-pl.completed)) // the in-flight count
	if pl.wave {
		dst = append(dst, uint64(pl.waveFirst-pl.completed), uint64(pl.waveSize), uint64(pl.waveLeft), uint64(pl.waveFwd))
	}
	for _, dev := range pl.x.Devices() {
		dst = dev.AppendState(dst, base)
	}
	return pl.x.appendState(dst, base)
}

// jump skips as many whole confirmed periods as the window leaves room for,
// keeping a period and the in-flight cap of it to simulate, and none if a
// shifted time would reach sim.Horizon.
func (r *Runner) jump() {
	st, pl := &r.st, &r.pl
	p := st.period
	j := (pl.cfg.Minibatches - pl.injected - p - pl.nm) / p
	if j < 1 {
		return
	}
	dp, dt := j*p, sim.Time(j)*st.span
	if !pl.eng.Shift(dt, pl.x.stamped(), int32(dp)) {
		return
	}
	for g, dev := range pl.x.Devices() {
		m := st.dev[g]
		dev.Shift(dt, int32(dp), sim.Duration(j)*m.busy, uint64(j)*m.served)
	}
	pl.x.shift(int32(dp))
	pl.injected += dp
	pl.completed += dp
	if pl.wave {
		pl.waveFirst += dp
	}
	for range dp {
		pl.finished = append(pl.finished, pl.finished[len(pl.finished)-p]+st.span)
	}
	st.skipped += dp
}

// hashWords folds a state into 64 bits: a hint for settle, which confirms
// every match exactly.
func hashWords(ws []uint64) uint64 {
	h := uint64(len(ws))
	for _, w := range ws {
		h = (bits.RotateLeft64(h, 23) ^ w) * 0x9e3779b97f4a7c15
	}
	return h
}
