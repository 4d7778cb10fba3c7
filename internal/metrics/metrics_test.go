package metrics

import (
	"math"
	"testing"
)

func TestSeriesAppendAndLast(t *testing.T) {
	var s Series
	if _, ok := s.Last(); ok {
		t.Error("empty series has a last point")
	}
	s.Append(1, 10)
	s.Append(2, 20)
	p, ok := s.Last()
	if !ok || p.T != 2 || p.V != 20 {
		t.Errorf("last = %+v, %v", p, ok)
	}
}

func TestSeriesRejectsTimeRegression(t *testing.T) {
	var s Series
	s.Append(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("time regression did not panic")
		}
	}()
	s.Append(4, 1)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || math.Abs(s.Mean-2) > 1e-12 {
		t.Errorf("summary = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {0, 1}}
	for _, c := range cases {
		if got := NearestRank(vals, c.p); got != c.want {
			t.Errorf("NearestRank(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := NearestRank([]float64{42}, 50); got != 42 {
		t.Errorf("NearestRank of singleton = %g, want 42", got)
	}
}
