package serve

import (
	"fmt"
	"math"
	"sort"

	"hetpipe/internal/metrics"
)

// LatencySummary condenses a latency population into the serving headline
// numbers. Percentiles use the nearest-rank method on the sorted population
// (metrics.NearestRank, as internal/sweep's streaming summaries do), so two
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
	return fmt.Sprintf("n=%d mean=%g p50=%g p95=%g p99=%g max=%g", l.Count, l.Mean, l.P50, l.P95, l.P99, l.Max)
}

// summaries derives a drained run's three latency summaries from its trace:
// the overall one plus the per-class splits (a class with no requests
// summarizes to the zero value). One 2n buffer holds the class-partitioned
// latencies and the sorter's scratch. Only the two splits are sorted; merging
// them yields the whole population in sorted order, the same sequence sorting
// it would, so every figure (Mean is summed in sorted order) is the one three
// sorts give.
func summaries(trace []RequestTrace) (all, critical, bulk LatencySummary) {
	n, nCrit := len(trace), 0
	for i := range trace {
		if trace[i].Critical {
			nCrit++
		}
	}
	buf := make([]float64, 2*n)
	ci, bi := 0, nCrit
	for i := range trace {
		lat := trace[i].Done - trace[i].At
		if trace[i].Critical {
			buf[ci] = lat
			ci++
		} else {
			buf[bi] = lat
			bi++
		}
	}
	crit, blk, everything := buf[:nCrit], buf[nCrit:n], buf[n:]
	sortLatencies(crit, everything)
	sortLatencies(blk, everything)
	i, j := 0, 0
	for k := range everything {
		if j < len(blk) && (i == len(crit) || blk[j] < crit[i]) {
			everything[k] = blk[j]
			j++
		} else {
			everything[k] = crit[i]
			i++
		}
	}
	return summarize(everything), summarize(crit), summarize(blk)
}

const (
	radixBits   = 11
	radixMask   = 1<<radixBits - 1
	radixPasses = (64 + radixBits - 1) / radixBits
	// radixMin is the population below which clearing the histograms costs
	// more than sort.Float64s does.
	radixMin = 512
	// infBits is +Inf's bit pattern: every finite value >= +0 lies at or
	// below it, every negative value, -0 and NaN above.
	infBits = 0x7ff0000000000000
)

// sortLatencies sorts lat ascending in linear time, with scratch (at least as
// long) as the second buffer: a least-significant-digit radix sort over
// math.Float64bits, which orders finite values >= +0 exactly as < orders the
// floats — equal floats are equal bits there, so the result is the sequence
// sort.Float64s produces, bit for bit. All histograms are taken in one pass;
// a digit on which every key agrees moves nothing and is skipped. A small
// population, and any in which that pass meets a sign bit or a NaN (bit order
// is not value order there), takes sort.Float64s instead. Request ids are
// int32, so a population's counts fit the histograms' uint32.
//
//hetlint:hotpath
func sortLatencies(lat, scratch []float64) {
	if len(lat) < radixMin {
		sort.Float64s(lat)
		return
	}
	var hist [radixPasses][1 << radixBits]uint32
	for _, v := range lat {
		b := math.Float64bits(v)
		if b > infBits {
			sort.Float64s(lat)
			return
		}
		for p := range hist {
			hist[p][b>>(p*radixBits)&radixMask]++
		}
	}
	src, dst := lat, scratch[:len(lat)]
	for p := range hist {
		h, shift := &hist[p], p*radixBits
		if h[math.Float64bits(src[0])>>shift&radixMask] == uint32(len(src)) {
			continue
		}
		sum := uint32(0)
		for d, c := range h {
			h[d] = sum
			sum += c
		}
		for _, v := range src {
			d := math.Float64bits(v) >> shift & radixMask
			dst[h[d]] = v
			h[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &lat[0] {
		copy(lat, src)
	}
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
		P50:   metrics.NearestRank(lat, 50),
		P95:   metrics.NearestRank(lat, 95),
		P99:   metrics.NearestRank(lat, 99),
		Max:   lat[len(lat)-1],
	}
}
