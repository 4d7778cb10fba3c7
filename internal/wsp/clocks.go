package wsp

// Clocks is a ledger of per-worker monotone counters and the two WSP rules
// over them: the global clock is the minimum of the workers' clocks, and the
// clock distance is their maximum minus their minimum, which WSP bounds by
// D+1. Worker w's clock is usually the number of waves it has pushed, but any
// per-worker counter whose minimum matters (a retention floor, say) fits.
//
// The minimum and maximum are cached: GlobalClock is O(1), and the minimum is
// recounted only when the last worker at it moves. Clocks is not safe for
// concurrent use; the zero value has no workers, so call Reset first.
type Clocks struct {
	c []int
	// lo and hi are the minimum and maximum of c; atLo counts the workers
	// at lo.
	lo, hi, atLo int
	// maxDistance is the largest hi-lo since the last Reset.
	maxDistance int
}

// Reset gives the ledger n workers, every clock at clock and the recorded
// maximum distance maxDistance, in the storage it already has: Reset(n, 0, 0)
// is a fresh run, and a run resumed from a cut at clock c continues from
// Reset(n, c, distance so far).
func (k *Clocks) Reset(n, clock, maxDistance int) {
	k.c = append(k.c[:0], make([]int, n)...)
	for w := range k.c {
		k.c[w] = clock
	}
	k.lo, k.hi, k.atLo, k.maxDistance = clock, clock, n, maxDistance
}

// Workers reports how many workers the ledger tracks.
func (k *Clocks) Workers() int { return len(k.c) }

// Clock reports worker w's clock.
func (k *Clocks) Clock(w int) int { return k.c[w] }

// GlobalClock is the minimum clock over the workers.
func (k *Clocks) GlobalClock() int { return k.lo }

// MaxClockDistance reports the largest max-min spread of the clocks observed
// at any advance since the last Reset.
func (k *Clocks) MaxClockDistance() int { return k.maxDistance }

// Push advances worker w's clock by one and returns the new clock.
//
//hetlint:hotpath
func (k *Clocks) Push(w int) int {
	k.Raise(w, k.c[w]+1)
	return k.c[w]
}

// Raise advances worker w's clock to c, and reports whether that raised the
// global clock. A c at or below the worker's clock changes nothing, so
// raises may arrive out of order.
//
//hetlint:hotpath
func (k *Clocks) Raise(w, c int) bool {
	old := k.c[w]
	if c <= old {
		return false
	}
	k.c[w] = c
	k.hi = max(k.hi, c)
	rose := false
	if old == k.lo {
		if k.atLo--; k.atLo == 0 {
			k.recount()
			rose = true
		}
	}
	k.maxDistance = max(k.maxDistance, k.hi-k.lo)
	return rose
}

// recount finds the minimum and the workers at it afresh.
//
//hetlint:hotpath
func (k *Clocks) recount() {
	k.lo, k.atLo = k.c[0], 0
	for _, c := range k.c {
		switch {
		case c < k.lo:
			k.lo, k.atLo = c, 1
		case c == k.lo:
			k.atLo++
		}
	}
}
