package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// harness carries one run's measurement state: the reference clock, the
// optional tracer, the seed every input derives from, and the failure ledger.
type harness struct {
	clk  *refClock
	tr   *tracer
	seed int64
	// tiny shrinks every workload to smoke-test size; the numbers mean
	// nothing but every code path and metric is exercised.
	tiny bool

	setup       []piece
	ops, failed int
}

func newHarness(seed int64, tiny bool) *harness {
	h := &harness{seed: seed, tiny: tiny}
	h.clk = &refClock{k: newRefKernel(), reps: h.pick(refReps, 1)}
	return h
}

// timed runs f as one piece with its own pair of kernel bursts. Spans f
// records share the piece's round id.
func (h *harness) timed(f func()) piece {
	if h.tr != nil {
		h.tr.round++
	}
	return h.clk.time(f)
}

// probeReps is how many pieces a layer probe takes its median over.
const probeReps = 3

// probe times f probeReps times, each as its own piece under a span, and
// returns the median piece's reference seconds and allocations.
func (h *harness) probe(name string, f func()) (refSeconds, mallocs float64) {
	var secs, allocs []float64
	for rep := 0; rep < h.pick(probeReps, 1); rep++ {
		p := h.timed(func() { h.tr.span(name, f) })
		secs = append(secs, p.refSeconds())
		allocs = append(allocs, float64(p.mallocs))
	}
	return median(secs), median(allocs)
}

// setupPiece times one step of set-up; setup_s is the sum of these.
func (h *harness) setupPiece(f func()) { h.setup = append(h.setup, h.timed(f)) }

// op counts n attempted operations; fail counts one of them as failed.
func (h *harness) op(n int) { h.ops += n }

func (h *harness) fail(format string, a ...any) {
	h.failed++
	if h.failed <= 10 {
		fmt.Fprintf(os.Stderr, "hetperf: FAILED op: "+format+"\n", a...)
	}
}

// pick returns full unless the run is tiny.
func (h *harness) pick(full, tiny int) int {
	if h.tiny {
		return tiny
	}
	return full
}

// roundKind is one fixed piece of work a workload repeats. A pass runs every
// kind once, so all passes do identical work; run is timed, check is not.
type roundKind struct {
	units int
	run   func()
	check func()
}

type sample struct {
	kind int
	piece
}

// warm runs passes in kind order as set-up pieces: they bring heap, caches
// and sockets to their working state and give every check its reference
// output.
func (h *harness) warm(kinds []roundKind, passes int) {
	for pass := 0; pass < passes; pass++ {
		for k := range kinds {
			h.setupPiece(kinds[k].run)
			kinds[k].check()
		}
	}
}

// setupSeconds is the set-up pieces recorded so far, in reference seconds.
func (h *harness) setupSeconds() float64 {
	sum := 0.0
	for _, p := range h.setup {
		sum += p.refSeconds()
	}
	return sum
}

// measure runs a fixed number of passes, each in a fresh seed-shuffled kind
// order. The count never depends on the clock: a slow host takes longer over
// the same rounds, so the sample count does not depend on the host's speed.
func (h *harness) measure(kinds []roundKind, passes int) []sample {
	rng := rand.New(rand.NewSource(h.seed))
	h.clk.kernels, h.clk.chases = h.clk.kernels[:0], h.clk.chases[:0]
	runtime.GC()
	out := make([]sample, 0, passes*len(kinds))
	for pass := 0; pass < passes; pass++ {
		for _, k := range rng.Perm(len(kinds)) {
			p := h.timed(kinds[k].run)
			kinds[k].check()
			out = append(out, sample{kind: k, piece: p})
		}
	}
	return out
}

// passRefSeconds estimates one pass in reference seconds: the sum over kinds
// of each kind's median round. Rounds of different kinds do different work,
// so they are never pooled into one median.
func passRefSeconds(samples []sample, kinds int) float64 {
	per := make([][]float64, kinds)
	for _, s := range samples {
		per[s.kind] = append(per[s.kind], s.refSeconds())
	}
	sum := 0.0
	for _, v := range per {
		sum += median(v)
	}
	return sum
}

// memPasses is how many passes the memory pass repeats.
const memPasses = 3

// passPeakRSSMB is the memory pass: the resident set at the end of a pass
// (every round kind once) that started from a collected heap with every free
// page returned to the system and ran with the collector off. Nothing is
// freed inside such a pass, so the resident set only grows and its last
// reading is the pass's peak: the workload's live memory plus everything one
// pass allocates, the same to the page on every run and, a pass being the
// same rounds in whatever order the seed puts them, for every seed. VmHWM is
// not: under the concurrent collector it is a maximum over hundreds of cycles
// of how far each happened to overshoot.
func (h *harness) passPeakRSSMB(kinds []roundKind) float64 {
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	var rss []float64
	for pass := 0; pass < h.pick(memPasses, 1); pass++ {
		debug.FreeOSMemory() // collects first
		for k := range kinds {
			kinds[k].run()
			kinds[k].check()
		}
		rss = append(rss, rssMB())
	}
	return median(rss)
}

// endToEnd computes the five end-to-end metrics from an untraced run.
func (h *harness) endToEnd(kinds []roundKind, samples []sample, setupS, peakRSSMB float64) map[string]float64 {
	unitsPerPass := 0
	for _, k := range kinds {
		unitsPerPass += k.units
	}
	var units, mallocs, bytes float64
	for _, s := range samples {
		units += float64(kinds[s.kind].units)
		mallocs += float64(s.mallocs)
		bytes += float64(s.bytes)
	}
	return map[string]float64{
		"setup_s":              setupS,
		"units_per_s":          float64(unitsPerPass) / passRefSeconds(samples, len(kinds)),
		"allocs_per_unit":      mallocs / units,
		"alloc_bytes_per_unit": bytes / units,
		"peak_rss_mb":          peakRSSMB,
	}
}

// harnessMetrics are the measurement loop's own diagnostics, reported as
// layer metrics beside the numbers they qualify.
func (h *harness) harnessMetrics(kinds []roundKind, samples []sample) map[string]float64 {
	var ms, kern, chase []float64
	var units, wall, gcs float64
	straddled := 0
	for _, s := range samples {
		ms = append(ms, s.refSeconds()*1e3)
		units += float64(kinds[s.kind].units)
		wall += s.wall
		gcs += float64(s.gcs)
		if s.straddled() {
			straddled++
		}
	}
	for _, k := range h.clk.kernels {
		kern = append(kern, k*1e3)
	}
	for _, k := range h.clk.chases {
		chase = append(chase, k*1e3)
	}
	return map[string]float64{
		"harness.rounds":              float64(len(samples)),
		"harness.round_p50_ms":        median(ms),
		"harness.round_p90_ms":        quantile(ms, 0.9),
		"harness.wall_units_per_s":    units / wall,
		"harness.ref_ms_p50":          median(kern),
		"harness.ref_ms_iqr":          quantile(kern, 0.75) - quantile(kern, 0.25),
		"harness.mem_ms_p50":          median(chase),
		"harness.rounds_straddled":    float64(straddled),
		"harness.gc_cycles_per_round": gcs / float64(len(samples)),
	}
}

// quantile is the nearest-rank q-quantile of v (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// rssMB is the process's resident set right now (0 where /proc has none).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// digest folds a workload's outputs into one number for verification.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}
func (d digest) f64(x float64) { d.u64(math.Float64bits(x)) }
func (d digest) int(x int)     { d.u64(uint64(x)) }
func (d digest) str(s string) {
	d.h.Write([]byte(s))
	d.u64(uint64(len(s)))
}
func (d digest) sum() uint64 { return d.h.Sum64() }
