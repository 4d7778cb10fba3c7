package main

import (
	"runtime"
	"time"
)

// The reference kernels and their nominal times are frozen: every time the
// benchmark reports is wall time divided by how long these kernels took right
// next to it, so changing any of them rescales every baseline ever recorded.
// The smoke test pins both checksums.
const (
	refNominal = 4.0e-3 // seconds one FP kernel takes on the nominal machine
	refLen     = 4096
	refPasses  = 1200
	refReps    = 5 // FP kernels per burst; a piece is bracketed by two bursts

	memNominal = 4.6e-3  // seconds one memory kernel takes on the nominal machine
	memLen     = 1 << 18 // int32 entries: a 1 MiB cycle, about one core's L2
	memSteps   = 400000
	memReps    = 2 // memory kernels per burst

	// memShare is the memory kernel's weight in the reference: of the host's
	// slowdowns the workloads feel, the part that comes through the shared
	// caches and not through the core's speed. Measured (bench/README.md),
	// then frozen with the kernels.
	memShare = 0.15
)

// refKernel holds the two kernels' arrays.
type refKernel struct {
	a    [refLen]float64
	next []int32 // one cycle through all memLen entries, in scrambled order
}

func newRefKernel() *refKernel {
	k := &refKernel{next: make([]int32, memLen)}
	order := make([]int32, memLen)
	for i := range order {
		order[i] = int32(i)
	}
	lcg := uint64(12345)
	for i := memLen - 1; i > 0; i-- {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		j := int(lcg>>33) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for i, at := range order {
		k.next[at] = order[(i+1)%memLen]
	}
	return k
}

// run is one FP kernel: a loop-carried float64 dependency chain over an
// L1-resident array. It follows the core's speed and nothing else. It
// allocates nothing and makes no calls. The array is refilled first, so every
// call does the same arithmetic on the same values (left to carry over, the
// values shrink by 4e-6 per call and spend a few calls in the denormal range,
// where one kernel takes a hundred times longer). The explicit conversions
// forbid fusing the multiply into the add, so the checksum is the same on
// every architecture.
func (k *refKernel) run() float64 {
	for i := range k.a {
		k.a[i] = float64(i%7) + 1
	}
	s := 0.0
	for p := 0; p < refPasses; p++ {
		for i := range k.a {
			s += float64(k.a[i] * 1.0001)
			k.a[i] = float64(s * 1e-9)
		}
	}
	return s
}

// chase is one memory kernel: dependent loads around the 1 MiB cycle. It
// follows what the FP kernel cannot see, contention for the cache levels
// beyond L1 that other tenants of the host share with this process.
func (k *refKernel) chase() int32 {
	at := int32(0)
	for i := 0; i < memSteps; i++ {
		at = k.next[at]
	}
	return at
}

// burst is the kernels that ran on one side of a piece: mean seconds each.
type burst struct{ fp, mem float64 }

// piece is one timed stretch of work with the kernel bursts that ran
// immediately before and after it, and what the work allocated.
type piece struct {
	wall          float64 // seconds
	before, after burst
	mallocs       uint64
	bytes         uint64
	gcs           uint32
}

// factor converts this piece's wall seconds to reference seconds. The
// reference is the two kernels' slowdowns against their nominal times, mixed
// by memShare; each is the mean of all the kernels of both bursts, nothing
// discarded (min-of-bursts and dropping slow-state pieces both
// widened the run-to-run spread).
func (p piece) factor() float64 {
	fp := (p.before.fp + p.after.fp) / 2 / refNominal
	mem := (p.before.mem + p.after.mem) / 2 / memNominal
	return 1 / ((1-memShare)*fp + memShare*mem)
}

func (p piece) refSeconds() float64 { return p.wall * p.factor() }

// straddled reports a host speed change inside the piece: the two FP bursts
// disagree by more than 25%.
func (p piece) straddled() bool {
	lo, hi := p.before.fp, p.after.fp
	if lo > hi {
		lo, hi = hi, lo
	}
	return hi > 1.25*lo
}

// refClock times pieces against the kernels.
type refClock struct {
	k       *refKernel
	reps    int       // FP kernels per burst: refReps, or 1 at smoke-test size
	kernels []float64 // every FP kernel's wall seconds, for harness.ref_ms_*
	chases  []float64 // every memory kernel's, for harness.mem_ms_p50
	sink    float64
	m0, m1  runtime.MemStats
}

// burst runs the kernels of one burst and returns their mean times.
func (c *refClock) burst() burst {
	var b burst
	for i := 0; i < c.reps; i++ {
		t0 := time.Now()
		c.sink += c.k.run()
		d := time.Since(t0).Seconds()
		c.kernels = append(c.kernels, d)
		b.fp += d / float64(c.reps)
	}
	n := min(c.reps, memReps)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c.sink += float64(c.k.chase())
		d := time.Since(t0).Seconds()
		c.chases = append(c.chases, d)
		b.mem += d / float64(n)
	}
	return b
}

// time runs f between a fresh pair of bursts. The MemStats reads sit outside
// the stopwatch and inside the bursts, so counts cover f alone.
func (c *refClock) time(f func()) piece {
	var p piece
	p.before = c.burst()
	runtime.ReadMemStats(&c.m0)
	t0 := time.Now()
	f()
	p.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&c.m1)
	p.after = c.burst()
	p.mallocs = c.m1.Mallocs - c.m0.Mallocs
	p.bytes = c.m1.TotalAlloc - c.m0.TotalAlloc
	p.gcs = c.m1.NumGC - c.m0.NumGC
	return p
}
