package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// LatencySummary condenses a latency population into the serving headline
// numbers. Percentiles use the nearest-rank method on the sorted population
// (the same definition internal/sweep's streaming summaries use), so two
// summaries over the same population are byte-identical however they were
// accumulated.
type LatencySummary struct {
	// Count is the population size; all other fields are zero when it is 0.
	Count int
	// Mean is the arithmetic mean latency in seconds.
	Mean float64
	// P50, P95, and P99 are nearest-rank percentiles in seconds.
	P50, P95, P99 float64
	// Max is the largest latency observed.
	Max float64
}

// String renders the summary in a stable, byte-comparable form — the form
// the seed-determinism tests pin.
func (l LatencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		l.Count, gfmt(l.Mean), gfmt(l.P50), gfmt(l.P95), gfmt(l.P99), gfmt(l.Max))
}

// Recorder accumulates per-request serving latencies, split into the
// latency-critical and bulk traffic classes. It is safe for concurrent use:
// the simulator feeds it from its single event-loop goroutine, but live
// observers and future multi-goroutine backends may Add from many goroutines
// at once (the -race test hammers exactly that).
type Recorder struct {
	mu   sync.Mutex
	lat  []float64
	crit []bool
}

// NewRecorder returns a Recorder with capacity for n latencies.
func NewRecorder(n int) *Recorder {
	return &Recorder{lat: make([]float64, 0, n), crit: make([]bool, 0, n)}
}

// Add records one request's latency and traffic class.
//
//hetlint:hotpath
func (r *Recorder) Add(lat float64, critical bool) {
	r.mu.Lock()
	r.lat = append(r.lat, lat)
	r.crit = append(r.crit, critical)
	r.mu.Unlock()
}

// Count reports how many latencies have been recorded.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lat)
}

// Summary condenses the recorded population: the overall summary plus the
// per-class splits (a class with no requests summarizes to the zero value).
// Only the two splits are sorted; merging them yields the whole population in
// sorted order, the same sequence sorting it would, so every figure (Mean is
// summed in sorted order) is the one three sorts gave.
func (r *Recorder) Summary() (all, critical, bulk LatencySummary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	nCrit := 0
	for _, c := range r.crit {
		if c {
			nCrit++
		}
	}
	crit := make([]float64, 0, nCrit)
	blk := make([]float64, 0, len(r.lat)-nCrit)
	for i, v := range r.lat {
		if r.crit[i] {
			crit = append(crit, v)
		} else {
			blk = append(blk, v)
		}
	}
	sort.Float64s(crit)
	sort.Float64s(blk)
	everything := make([]float64, 0, len(r.lat))
	i, j := 0, 0
	for i < len(crit) && j < len(blk) {
		if blk[j] < crit[i] {
			everything = append(everything, blk[j])
			j++
		} else {
			everything = append(everything, crit[i])
			i++
		}
	}
	everything = append(append(everything, crit[i:]...), blk[j:]...)
	return summarize(everything), summarize(crit), summarize(blk)
}

// summarize condenses a sorted population.
func summarize(lat []float64) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sum := 0.0
	for _, v := range lat {
		sum += v
	}
	return LatencySummary{
		Count: len(lat),
		Mean:  sum / float64(len(lat)),
		P50:   nearestRank(lat, 50),
		P95:   nearestRank(lat, 95),
		P99:   nearestRank(lat, 99),
		Max:   lat[len(lat)-1],
	}
}

// nearestRank returns the p-th percentile of the sorted slice by the
// nearest-rank definition — the ceil(p/100*n)-th smallest value, matching
// internal/sweep's streaming percentile.
func nearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
