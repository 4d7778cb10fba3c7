// Package metrics holds small measurement helpers shared by the experiment
// harness: time series (accuracy-over-time curves) and summaries.
package metrics

import (
	"fmt"
	"math"
)

// Point is one sample of a time series.
type Point struct {
	T float64 // seconds
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a sample; time must not regress.
func (s *Series) Append(t, v float64) {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		panic(fmt.Sprintf("metrics: series %q time regressed: %g after %g", s.Name, t, s.Points[n-1].T))
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Last returns the most recent sample.
func (s *Series) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// Summary aggregates a slice of values.
type Summary struct {
	N              int
	Min, Max, Mean float64
}

// String renders the summary compactly, e.g. "n=4 min=1.2 mean=2.0 max=3.1".
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g mean=%.4g max=%.4g", s.N, s.Min, s.Mean, s.Max)
}

// Spread reports Max-Min: the absolute imbalance across the summarized
// values (e.g. the straggler gap between virtual-worker throughputs).
func (s Summary) Spread() float64 { return s.Max - s.Min }

// NearestRank returns the p-th percentile of ascending-sorted values by the
// nearest-rank definition: the ceil(p/100*n)-th smallest value, clamped to
// the first and last. Serving latencies and sweep throughputs both use it.
func NearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// Summarize computes a summary; empty input yields a zero Summary.
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	s := Summary{N: len(vals), Min: vals[0], Max: vals[0]}
	var sum float64
	for _, v := range vals {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(len(vals))
	return s
}
