package partition

import (
	"math"
	"math/rand"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// TestFloorBoundsCostAndIsMonotone holds solve's stopping rule to its two
// proof obligations in float64, on random tables: for every virtual stage j
// and every end hi, walking the cut lo down from hi-1 to 0, the floor of
// [lo, hi) never falls (so once it is above the incumbent every lower cut's
// is), and it never exceeds the chunk's cost wherever the chunk fits (so a cut
// it rules out could not have won or tied). The FLOP weights span twelve
// orders of magnitude with exact zeros mixed in, where a row of the range
// table absorbs small layers entirely and sums depend most on their order;
// workers mix GPU types and link kinds, V is 1 or 2, and BwdFwdRatio varies.
func TestFloorBoundsCostAndIsMonotone(t *testing.T) {
	c, err := hw.ClusterByName("paper-x2")
	if err != nil {
		t.Fatal(err)
	}
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	r := rand.New(rand.NewSource(22))
	checked, tight := 0, 0
	for round := 0; round < rounds; round++ {
		k := 1 + r.Intn(8)
		v := 1 + r.Intn(2)
		w := make([]float64, k*v+r.Intn(40))
		for i := range w {
			switch r.Intn(8) {
			case 0:
				w[i] = 0
			default:
				w[i] = math.Exp(r.NormFloat64()*4) * 1e9
			}
		}
		w[r.Intn(len(w))] += 1 // a model needs some FLOPs
		m := model.Skewed("floor", w, int64(1)<<(10+r.Intn(14)), int64(1)<<(8+r.Intn(14)))
		perf := profile.Default()
		perf.BwdFwdRatio = []float64{0, 0.5, 1, 2, 2.75, 7}[r.Intn(6)]
		pt := NewInterleaved(perf, sched.Interleaved, v)
		// Whether or not a plan exists, the call leaves the planner loaded with
		// this problem's constants; that is all it is made for here.
		_, _ = pt.Partition(c, m, randomWorker(r, c, k), 1+r.Intn(8), 1+r.Intn(64))
		p := &pt.dp
		for j := 0; j < p.K; j++ {
			for hi := 1; hi <= p.L; hi++ {
				last := math.Inf(-1)
				for lo := hi - 1; lo >= 0; lo-- {
					f := floor(p.tab.StageTime(p.whole[j], lo, hi))
					if f < last {
						t.Fatalf("round %d stage %d: floor of [%d,%d) is %v, below [%d,%d)'s %v", round, j, lo, hi, f, lo+1, hi, last)
					}
					last = f
					if lo == 0 && j > 0 || hi == p.L && j < p.K-1 {
						continue // cost reads no boundary before layer 0 or after the last
					}
					cost := p.cost(lo, hi, j)
					if f > cost {
						t.Fatalf("round %d stage %d: floor of [%d,%d) is %v, above its cost %v", round, j, lo, hi, f, cost)
					}
					checked++
					if f > cost*(1-1e-12) {
						tight++
					}
				}
			}
		}
	}
	if tight == 0 {
		t.Error("no chunk's cost came within 1e-12 of its floor: the bound was never tested where it is tight")
	}
	t.Logf("%d chunks checked, %d with cost within 1e-12 of the floor", checked, tight)
}
