package clause

import (
	"strings"
	"testing"
)

// span is a kind with every field shape the codec supports.
type span struct {
	n        int
	seed     int64
	x, rate  float64
	from, to int
}

func (s *span) row() Row {
	return Of("span", Num("n<N>", &s.n), Num("<rate>", &s.rate),
		Range("mb<from>-<to>", &s.from, &s.to).Or(0), Num("seed<k>", &s.seed).Or(1), Num("x<f>", &s.x).Or(0))
}

func TestRowParsePrintUsage(t *testing.T) {
	var s span
	if got, want := s.row().Usage(), "span:n<N>:<rate>[:mb<from>-<to>][:seed<k>][:x<f>]"; got != want {
		t.Errorf("usage = %q, want %q", got, want)
	}
	for _, tc := range []struct{ in, canon string }{
		{"n3:0.5", "span:n3:0.5"},
		{"n3:0.5:seed1:x0:mb0-0", "span:n3:0.5"}, // every optional field at its default
		{"n-2:1e300:x2.5:mb0-9:seed0", "span:n-2:1e+300:mb1-9:seed0:x2.5"},
		{"n3:0.5:mb4-", "span:n3:0.5:mb4-0"},
	} {
		s = span{seed: 9, to: 7} // leftovers a parse must overwrite
		if err := s.row().Parse(strings.Split(tc.in, ":")); err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if got := s.row().String(); got != tc.canon {
			t.Errorf("%q prints %q, want %q", tc.in, got, tc.canon)
		}
	}
	for in, want := range map[string]string{
		"n3":                   "want span:",
		"3:0.5":                `must start with "n"`,
		"nX:0.5":               "invalid syntax",
		"n3:0.5:mb4":           "must be mb<from>-<to>",
		"n3:0.5:y1":            `unknown field "y1"`,
		"n3:0.5:seed2:x1:seed": "repeats seed<k>",
	} {
		if err := s.row().Parse(strings.Split(in, ":")); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one containing %q", in, err, want)
		}
	}
}
