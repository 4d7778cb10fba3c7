package partition

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

func vwFor(t *testing.T, spec string) (*hw.Cluster, *hw.VirtualWorker) {
	t.Helper()
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{spec})
	if err != nil {
		t.Fatal(err)
	}
	return c, a.VWs[0]
}

func TestPartitionPaperModels(t *testing.T) {
	pt := New(profile.Default())
	for _, m := range model.PaperModels() {
		for _, spec := range hw.SingleVWConfigs() {
			c, vw := vwFor(t, spec)
			plan, err := pt.Partition(c, m, vw, 1, 32)
			if err != nil {
				t.Errorf("%s on %s: %v", m.Name, spec, err)
				continue
			}
			if err := plan.Validate(); err != nil {
				t.Errorf("%s on %s: %v", m.Name, spec, err)
			}
			if plan.Bottleneck <= 0 {
				t.Errorf("%s on %s: zero bottleneck", m.Name, spec)
			}
		}
	}
}

func TestPartitionBalancesHomogeneous(t *testing.T) {
	// On four identical GPUs with a uniform model and no comm cost
	// differences, the optimal split is even.
	pt := New(profile.Default())
	m := model.Synthetic("uniform", 16, 1000, 1e9, 1000)
	c, vw := vwFor(t, "VVVV")
	plan, err := pt.Partition(c, m, vw, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range plan.Stages {
		if s.Layers() != 4 {
			t.Errorf("stage %d has %d layers, want 4 (plan cuts: %+v)", i, s.Layers(), plan.Stages)
		}
	}
}

func TestPartitionSkewsTowardFastGPUs(t *testing.T) {
	// A V GPU is faster than a Q; on a VQ virtual worker the V stage should
	// get at least as many uniform layers as the Q stage.
	pt := New(profile.Default())
	m := model.Synthetic("uniform", 12, 1000, 1e9, 1000)
	c, vw := vwFor(t, "VQ")
	plan, err := pt.Partition(c, m, vw, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stages[0].Layers() < plan.Stages[1].Layers() {
		t.Errorf("V stage got %d layers, Q stage %d; want V >= Q",
			plan.Stages[0].Layers(), plan.Stages[1].Layers())
	}
}

func TestPartitionRespectsMemory(t *testing.T) {
	pt := New(profile.Default())
	// ResNet-152 at Nm=4 on GGGG (6 GiB parts): every stage must fit.
	c, vw := vwFor(t, "GGGG")
	m := model.ResNet152()
	nm := pt.MaxNm(c, m, vw, 32, 8)
	if nm < 1 {
		t.Fatalf("GGGG cannot host ResNet-152 at all; memory model too strict")
	}
	plan, err := pt.Partition(c, m, vw, nm, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range plan.Stages {
		if s.MemoryBytes > s.MemoryCap {
			t.Errorf("stage %d: %d > cap %d", i, s.MemoryBytes, s.MemoryCap)
		}
	}
	// And Nm+1 must be infeasible (MaxNm is tight) unless it hit the cap.
	if nm < 8 {
		if _, err := pt.Partition(c, m, vw, nm+1, 32); err == nil {
			t.Errorf("MaxNm=%d but Nm=%d is feasible", nm, nm+1)
		}
	}
}

func TestMaxNmMonotoneInMemory(t *testing.T) {
	pt := New(profile.Default())
	m := model.ResNet152()
	// RRRR (24 GiB) supports at least as many concurrent minibatches as
	// GGGG (6 GiB).
	cR, vwR := vwFor(t, "RRRR")
	cG, vwG := vwFor(t, "GGGG")
	nmR := pt.MaxNm(cR, m, vwR, 32, 16)
	nmG := pt.MaxNm(cG, m, vwG, 32, 16)
	if nmR < nmG {
		t.Errorf("MaxNm RRRR=%d < GGGG=%d", nmR, nmG)
	}
	if nmG < 1 {
		t.Errorf("GGGG MaxNm = %d, want >= 1", nmG)
	}
}

func TestPartitionErrors(t *testing.T) {
	pt := New(profile.Default())
	c, vw := vwFor(t, "VV")
	m := model.Synthetic("tiny", 1, 10, 1e6, 10)
	if _, err := pt.Partition(c, m, vw, 1, 32); err == nil {
		t.Error("fewer layers than stages should fail")
	}
	m2 := model.Synthetic("ok", 4, 10, 1e6, 10)
	if _, err := pt.Partition(c, m2, vw, 0, 32); err == nil {
		t.Error("Nm=0 should fail")
	}
	if _, err := pt.Partition(c, m2, vw, 1, 0); err == nil {
		t.Error("batch=0 should fail")
	}
}

func TestPartitionInfeasibleMemory(t *testing.T) {
	pt := New(profile.Default())
	// A model whose single layer stash dwarfs any GPU: infeasible.
	m := model.Synthetic("huge", 4, 10, 1e6, 1<<31)
	c, vw := vwFor(t, "GGGG")
	if _, err := pt.Partition(c, m, vw, 4, 32); err == nil {
		t.Error("infeasible memory should fail")
	}
}

// bruteForce finds the optimal bottleneck by enumerating every cut, for
// cross-checking the DP. Only usable for small L and k.
func bruteForce(pt *Partitioner, c *hw.Cluster, m *model.Model, vw *hw.VirtualWorker, nm, batch int) float64 {
	k := len(vw.GPUs)
	L := len(m.Layers)
	links := make([]hw.LinkKind, k)
	for s := 1; s < k; s++ {
		links[s] = c.LinkBetween(vw.GPUs[s-1], vw.GPUs[s])
	}
	cost := func(lo, hi, s int) float64 {
		mem := pt.Perf.ChunkMemory(sched.Default(), m, lo, hi, s, k, nm, batch)
		if mem > vw.GPUs[s].Type.MemoryBytes {
			return math.Inf(1)
		}
		fwd, bwd, _ := pt.Perf.StageTime(m, lo, hi, vw.GPUs[s].Type, batch)
		t := fwd + bwd
		if s > 0 {
			t += pt.Perf.BoundaryTime(m, lo-1, batch, links[s])
		}
		if s < k-1 {
			t += pt.Perf.BoundaryTime(m, hi-1, batch, links[s+1])
		}
		return t
	}
	best := math.Inf(1)
	var rec func(start, s int, cur float64)
	rec = func(start, s int, cur float64) {
		if s == k-1 {
			b := math.Max(cur, cost(start, L, s))
			if b < best {
				best = b
			}
			return
		}
		for hi := start + 1; hi <= L-(k-1-s); hi++ {
			rec(hi, s+1, math.Max(cur, cost(start, hi, s)))
		}
	}
	rec(0, 0, 0)
	return best
}

func TestPartitionMatchesBruteForce(t *testing.T) {
	pt := New(profile.Default())
	specs := []string{"VQ", "VRG", "VVQQ", "RRGG"}
	for _, spec := range specs {
		c, vw := vwFor(t, spec)
		m := model.Skewed("skew", []float64{5, 1, 9, 2, 2, 7, 1, 4, 3, 6}, 1000, 2000)
		plan, err := pt.Partition(c, m, vw, 2, 8)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		want := bruteForce(pt, c, m, vw, 2, 8)
		if math.Abs(plan.Bottleneck-want) > 1e-12 {
			t.Errorf("%s: DP bottleneck %v, brute force %v", spec, plan.Bottleneck, want)
		}
	}
}

// Property: for random skewed models the DP bottleneck equals brute force.
func TestPartitionOptimalProperty(t *testing.T) {
	pt := New(profile.Default())
	c, vw := vwFor(t, "VRQ")
	prop := func(ws [6]uint8) bool {
		weights := make([]float64, 6)
		for i, w := range ws {
			weights[i] = float64(w%50) + 1
		}
		m := model.Skewed("p", weights, 100, 100)
		plan, err := pt.Partition(c, m, vw, 1, 4)
		if err != nil {
			return false
		}
		return math.Abs(plan.Bottleneck-bruteForce(pt, c, m, vw, 1, 4)) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCutsPriceToPartition: cuts solved for one worker and priced for
// another of its kind — same GPU types, same links — are the plan Partition
// returns for the second, at every Nm and interleave degree, even when Price
// refills a plan of another Nm in place. Warm, Cuts, Price into a plan of
// the right shape, and MaxNm allocate nothing.
func TestCutsPriceToPartition(t *testing.T) {
	c := hw.Paper()
	a, err := hw.AllocateByTypes(c, []string{"VRGQ", "VRGQ"})
	if err != nil {
		t.Fatal(err)
	}
	m := model.ResNet152()
	for _, pt := range []*Partitioner{New(profile.Default()), NewInterleaved(profile.Default(), sched.Interleaved, 2)} {
		var got Plan
		for nm := 1; nm <= 8; nm++ {
			want, err := pt.Partition(c, m, a.VWs[1], nm, 32)
			if err != nil {
				t.Fatal(err)
			}
			cuts, err := pt.Cuts(c, m, a.VWs[0], nm, 32)
			if err != nil {
				t.Fatal(err)
			}
			if err := pt.Price(&got, c, m, a.VWs[1], nm, 32, cuts); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&got, want) {
				t.Errorf("V=%d Nm=%d: priced cuts\n%+v\nwant Partition's\n%+v", pt.interleave(), nm, got, *want)
			}
		}
		if raceEnabled {
			continue
		}
		allocs := testing.AllocsPerRun(20, func() {
			cuts, err := pt.Cuts(c, m, a.VWs[0], 4, 32)
			if err != nil {
				t.Fatal(err)
			}
			if err := pt.Price(&got, c, m, a.VWs[0], 4, 32, cuts); err != nil {
				t.Fatal(err)
			}
			pt.MaxNm(c, m, a.VWs[1], 32, 8)
		})
		if allocs != 0 {
			t.Errorf("V=%d: warm Cuts, Price and MaxNm allocate %v times, want 0", pt.interleave(), allocs)
		}
	}
	if err := New(profile.Default()).Price(new(Plan), c, m, a.VWs[0], 4, 32, []int{0, 58}); err == nil {
		t.Error("Price took 2 cuts for 4 virtual stages")
	}
}
