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
// jump stops fewer than a period of injections short of the window's end
// (Config.Minibatches), so a run simulates the fill, the confirmation, those
// last injections (a shortened gpipe wave among them) and the drain.
//
// Detection: after each completion, a hint of the relative state (hint: a
// few words per device) goes into a ring of the last lags completions, and a
// count per hint modulo 128 (seen) says when the ring cannot hold it. A hint
// equal to the one P completions back only opens a candidate: the whole
// relative state, pending events in firing order, is built then (Runner.state,
// into snap) and again P completions later, and only a word-for-word match of
// the two confirms the period. The candidate's state need not equal the one
// P completions before it, so a period can be confirmed before the states
// themselves have recurred once; a hint match whose state does not recur
// costs one candidate that is dropped.
type steady struct {
	hashes [lags]uint16 // hashes[c%lags]: the hint after completion c
	seen   [128]uint8   // seen[h%128]: how many hints in hashes are h modulo 128

	// A candidate: the state after completion cand was snap, at clock at,
	// and should recur lag completions later; busy holds each device's busy
	// time then, and once confirmed, per period.
	cand, lag int
	at        sim.Time
	cur, snap []uint64
	busy      []sim.Duration

	period  int      // confirmed: P completions...
	span    sim.Time // ...take T seconds
	skipped int      // minibatches jumped over this run
}

// reset forgets the last run and, if pl fast-forwards, sizes the scratch for
// its states, so that a run allocates the same whether or not, and wherever,
// it finds a period. Every minibatch in flight is in one place — a job queued
// or in service (two words), a transfer pending (four, only where receives
// overlap), a ring entry (one) — and every GPU adds at most eight (its queue
// header, service start and job, and the completion event), every ring pair
// two, the in-flight count one and the wave four.
func (st *steady) reset(pl *Pipeline) {
	st.hashes, st.seen = [lags]uint16{}, [128]uint8{}
	st.cand, st.period, st.skipped = 0, 0, 0
	if pl.runner == nil {
		return
	}
	n := 1 + 8*pl.x.k + 2*len(pl.x.stages) + 2*pl.nm
	if pl.x.overlap {
		n += 2 * pl.nm
	}
	if pl.wave {
		n += 4
	}
	if cap(st.cur) < n || cap(st.snap) < n {
		buf := make([]uint64, 2*n)
		st.cur, st.snap = buf[:0:n], buf[n:n:2*n]
	}
	st.busy = slices.Grow(st.busy[:0], pl.x.k)[:pl.x.k]
}

// settle is the fast-forward step after a completion's injections: jump if a
// period is confirmed, else record the hint and look for one. Once the window
// has injected its last minibatch no jump can follow, and it does nothing.
//
//hetlint:hotpath
func (r *Runner) settle() {
	st, pl := &r.st, &r.pl
	if pl.injected == pl.cfg.Minibatches {
		return
	}
	if st.period > 0 {
		r.jump()
		return
	}
	c, from := pl.completed, 1
	h := r.hint()
	// A candidate that comes due is confirmed or dropped before another is
	// looked for. One dropped at lag L is followed by one of a longer lag
	// only: a hint that repeats every L completions while the state does not
	// would otherwise reopen lag L until the window ends.
	if st.cand > 0 && c == st.cand+st.lag {
		st.cur = r.state(st.cur[:0])
		if slices.Equal(st.cur, st.snap) {
			st.period, st.span = st.lag, pl.eng.Now()-st.at
			for g, dev := range pl.x.Devices() {
				st.busy[g] = dev.BusyTime() - st.busy[g]
			}
			r.jump()
			return
		}
		st.cand, from = 0, st.lag+1
	}
	// The ring can hold h only if it holds a hint equal to h modulo 128.
	if st.cand == 0 && st.seen[h%128] > 0 {
		for lag := from; lag <= min(c-1, lags); lag++ {
			if st.hashes[uint(c-lag)%lags] == h {
				st.cand, st.lag, st.at = c, lag, pl.eng.Now()
				st.snap = r.state(st.snap[:0])
				for g, dev := range pl.x.Devices() {
					st.busy[g] = dev.BusyTime()
				}
				break
			}
		}
	}
	if c > lags {
		st.seen[st.hashes[uint(c)%lags]%128]--
	}
	st.hashes[uint(c)%lags] = h
	st.seen[h%128]++
}

// hint folds into 16 bits a few words, each a function of the state relative
// to (now, completed) (Runner.state): the in-flight count, the open wave's
// fields under wave injection, the pending-event count, and each device's
// queue length, busy flag and time in service (sim.Resource.Hint). Equal
// states give equal hints; settle confirms every hint match word for word.
// It reads O(k) words, where the state holds words for every minibatch in
// flight: settle takes a hint after every completion and builds the state
// only to open a candidate or decide one.
//
//hetlint:hotpath
func (r *Runner) hint() uint16 {
	pl := &r.pl
	h := mix(uint64(pl.injected-pl.completed), uint64(pl.eng.Pending()))
	if pl.wave {
		h = mix(mix(h, uint64(pl.waveFirst-pl.completed)), uint64(pl.waveSize))
		h = mix(mix(h, uint64(pl.waveLeft)), uint64(pl.waveFwd))
	}
	for _, dev := range pl.x.Devices() {
		queue, served := dev.Hint()
		h = mix(h, queue^served)
	}
	return uint16(h >> 48)
}

// mix folds the word w into the hash h.
func mix(h, w uint64) uint64 { return (bits.RotateLeft64(h, 23) ^ w) * 0x9e3779b97f4a7c15 }

// state appends the pipeline's state relative to (now, completed) to dst,
// the engine's pending events last, in firing order (sim.Engine.AppendState).
// The wave fields are state only under wave injection, where they move; no
// gate is waiting, since a hook-free run has none.
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
	return pl.eng.AppendState(pl.x.appendState(dst, base), pl.x.stamped(), base)
}

// jump skips the most whole confirmed periods the window's injections leave
// room for, (Minibatches-injected)/P, so fewer than P injections are left to
// simulate; none if a shifted time would reach sim.Horizon. It is exact: a
// hook-free run reads Minibatches only in Poke, and the skipped periods inject
// at most up to it, so every skipped injection passes the cap and every
// skipped wave opens and fills within it, full-size, as in the confirmed
// period.
func (r *Runner) jump() {
	st, pl := &r.st, &r.pl
	p := st.period
	j := (pl.cfg.Minibatches - pl.injected) / p
	if j < 1 {
		return
	}
	dp, dt := j*p, sim.Time(j)*st.span
	if !pl.eng.Shift(dt, pl.x.stamped(), int32(dp)) {
		return
	}
	for g, dev := range pl.x.Devices() {
		dev.Shift(dt, int32(dp), sim.Duration(j)*st.busy[g])
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
