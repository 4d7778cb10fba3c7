package serve

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSortLatenciesMatchesSortFloat64s is the radix sorter's oracle: on any
// population it must leave exactly the sequence sort.Float64s does, bit for
// bit — on the populations it orders itself (finite, >= +0: heavy duplicates,
// +0, subnormals, +Inf, one shared exponent so whole digits are skipped,
// sizes either side of the small-population cut-off) and on the ones it must
// hand to sort.Float64s (a negative value, a -0 or a NaN anywhere).
func TestSortLatenciesMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draws := []struct {
		name string
		draw func() float64
	}{
		{"uniform", rng.Float64},
		{"duplicates", func() float64 { return 0.001 * float64(rng.Intn(8)) }},
		{"one-binade", func() float64 { return 1 + rng.Float64() }},
		{"subnormal", func() float64 { return math.Float64frombits(uint64(rng.Int63n(1 << 52))) }},
		{"wide", func() float64 { return math.Float64frombits(uint64(rng.Int63n(infBits + 1))) }},
		{"edges", func() float64 {
			return []float64{0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}[rng.Intn(5)]
		}},
		{"constant", func() float64 { return 0.25 }},
	}
	poisons := []struct {
		name string
		v    float64
	}{{"clean", 0}, {"negative", -1.5}, {"minus-zero", math.Copysign(0, -1)}, {"nan", math.NaN()}, {"minus-inf", math.Inf(-1)}}
	for _, d := range draws {
		for _, poison := range poisons {
			for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 3000, 1 << 14} {
				lat := make([]float64, n)
				for i := range lat {
					lat[i] = d.draw()
				}
				if poison.name != "clean" && n > 0 {
					lat[rng.Intn(n)] = poison.v
					lat[rng.Intn(n)] = poison.v
				}
				want := append([]float64(nil), lat...)
				sort.Float64s(want)
				scratch := make([]float64, n)
				sortLatencies(lat, scratch)
				for i := range want {
					if math.Float64bits(lat[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s/%s n=%d: element %d is %v (%#x), sort.Float64s gives %v (%#x)",
							d.name, poison.name, n, i, lat[i], math.Float64bits(lat[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}
