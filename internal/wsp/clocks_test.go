package wsp

import (
	"math/rand"
	"slices"
	"testing"
)

// TestClocksMatchNaiveRecount drives the ledger with random Push and Raise
// sequences — stale raises, ties at the minimum, one worker far ahead —
// and checks every answer against a recount over a plain slice after every
// operation: the minimum, max − min, the running maximum distance, and
// whether the minimum rose.
func TestClocksMatchNaiveRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var k Clocks
	for trial := range 500 {
		n := 1 + rng.Intn(6)
		start, dist := rng.Intn(4), rng.Intn(3)
		k.Reset(n, start, dist) // reuses the previous trial's storage
		naive := slices.Repeat([]int{start}, n)
		for op := range 60 {
			w := rng.Intn(n)
			before := slices.Min(naive)
			if rng.Intn(2) == 0 {
				if got := k.Push(w); got != naive[w]+1 {
					t.Fatalf("trial %d op %d: Push(%d) = %d, want %d", trial, op, w, got, naive[w]+1)
				}
				naive[w]++
			} else {
				c := naive[w] + rng.Intn(5) - 2 // at, below or above the clock
				rose := k.Raise(w, c)
				naive[w] = max(naive[w], c)
				if after := slices.Min(naive); rose != (after > before) {
					t.Fatalf("trial %d op %d: Raise(%d, %d) = %v, minimum %d -> %d", trial, op, w, c, rose, before, after)
				}
			}
			lo, hi := slices.Min(naive), slices.Max(naive)
			dist = max(dist, hi-lo)
			if k.GlobalClock() != lo || k.MaxClockDistance() != dist || k.Clock(w) != naive[w] || k.Workers() != n {
				t.Fatalf("trial %d op %d: ledger (global %d, max distance %d, clock %d, workers %d), naive (%d, %d, %d, %d)",
					trial, op, k.GlobalClock(), k.MaxClockDistance(), k.Clock(w), k.Workers(), lo, dist, naive[w], n)
			}
		}
	}
}
