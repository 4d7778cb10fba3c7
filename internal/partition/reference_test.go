package partition

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// referencePartition is Partition as it stood before the cost tables: cost
// walks the layer range through Perf.ChunkMemory, StageTime and BoundaryTime
// on every evaluation, and the DP allocates a row per prefix and skips only
// infeasible prefixes. It is kept as the oracle the tabulated DP must match
// bit for bit.
func referencePartition(pt *Partitioner, c *hw.Cluster, m *model.Model, vw *hw.VirtualWorker, nm, batch int) (*Plan, error) {
	k := len(vw.GPUs)
	L := len(m.Layers)
	V := pt.interleave()
	K := k * V
	switch {
	case k == 0:
		return nil, fmt.Errorf("partition: virtual worker has no GPUs")
	case nm < 1:
		return nil, fmt.Errorf("partition: Nm must be >= 1, got %d", nm)
	case batch < 1:
		return nil, fmt.Errorf("partition: batch must be >= 1, got %d", batch)
	case V > 1 && !pt.schedule().SupportsInterleave():
		return nil, fmt.Errorf("partition: schedule %q does not support interleave degree %d", pt.schedule().Name(), V)
	case L < K:
		return nil, fmt.Errorf("partition: model %s has %d layers, fewer than %d virtual stages", m.Name, L, K)
	}
	gpu := func(j int) *hw.GPU { return vw.GPUs[j%k] }
	links := make([]hw.LinkKind, K)
	for j := 1; j < K; j++ {
		links[j] = c.LinkBetween(gpu(j-1), gpu(j))
	}
	chunkCap := make([]int64, K)
	for j := 0; j < K; j++ {
		cap := gpu(j).Type.MemoryBytes
		chunkCap[j] = (cap-pt.Perf.WorkspaceBytes)/int64(V) + pt.Perf.WorkspaceBytes
	}
	cost := func(lo, hi, j int) float64 {
		mem := pt.Perf.ChunkMemory(pt.schedule(), m, lo, hi, j, K, nm, batch)
		if mem > chunkCap[j] {
			return math.Inf(1)
		}
		fwd, bwd, err := pt.Perf.StageTime(m, lo, hi, gpu(j).Type, batch)
		if err != nil {
			return math.Inf(1)
		}
		t := fwd + bwd
		if j > 0 {
			t += pt.Perf.BoundaryTime(m, lo-1, batch, links[j])
		}
		if j < K-1 {
			t += pt.Perf.BoundaryTime(m, hi-1, batch, links[j+1])
		}
		return math.Max(float64(V)*(fwd+bwd), t)
	}
	const unset = -1
	best := make([][]float64, L+1)
	choice := make([][]int, L+1)
	for i := range best {
		best[i] = make([]float64, K)
		choice[i] = make([]int, K)
		for j := range best[i] {
			best[i][j] = math.Inf(1)
			choice[i][j] = unset
		}
	}
	for i := 1; i <= L-(K-1); i++ {
		best[i][0] = cost(0, i, 0)
		choice[i][0] = 0
	}
	for j := 1; j < K; j++ {
		for i := j + 1; i <= L-(K-1-j); i++ {
			for cut := j; cut < i; cut++ {
				if math.IsInf(best[cut][j-1], 1) {
					continue
				}
				b := math.Max(best[cut][j-1], cost(cut, i, j))
				if b < best[i][j] {
					best[i][j] = b
					choice[i][j] = cut
				}
			}
		}
	}
	if math.IsInf(best[L][K-1], 1) {
		return nil, fmt.Errorf("partition: no memory-feasible %d-way split of %s", K, m.Name)
	}
	cuts := make([]int, K+1)
	cuts[K] = L
	for j := K - 1; j > 0; j-- {
		cuts[j] = choice[cuts[j+1]][j]
	}
	plan := &Plan{Model: m, Batch: batch, Nm: nm, Schedule: pt.schedule().Name(), Interleave: V}
	plan.Stages = make([]Stage, k)
	for s := 0; s < k; s++ {
		plan.Stages[s].GPU = vw.GPUs[s]
		plan.Stages[s].MemoryCap = vw.GPUs[s].Type.MemoryBytes
		plan.Stages[s].Chunks = make([]Chunk, 0, V)
	}
	chunkRanges := make([][][2]int, k)
	for j := 0; j < K; j++ {
		lo, hi := cuts[j], cuts[j+1]
		fwd, bwd, err := pt.Perf.StageTime(m, lo, hi, gpu(j).Type, batch)
		if err != nil {
			return nil, err
		}
		ch := Chunk{Lo: lo, Hi: hi, FwdTime: fwd, BwdTime: bwd}
		if j > 0 {
			ch.RecvActTime = pt.Perf.BoundaryTime(m, lo-1, batch, links[j])
		}
		if j < K-1 {
			ch.RecvGradTime = pt.Perf.BoundaryTime(m, hi-1, batch, links[j+1])
		}
		st := &plan.Stages[j%k]
		st.Chunks = append(st.Chunks, ch)
		st.FwdTime += fwd
		st.BwdTime += bwd
		st.RecvActTime += ch.RecvActTime
		st.RecvGradTime += ch.RecvGradTime
		chunkRanges[j%k] = append(chunkRanges[j%k], [2]int{lo, hi})
	}
	for s := 0; s < k; s++ {
		st := &plan.Stages[s]
		// Workspace once per device; chunk c of stage s is virtual stage
		// s + c*k and carries its own stash bound.
		st.MemoryBytes = pt.Perf.WorkspaceBytes
		for c, r := range chunkRanges[s] {
			st.MemoryBytes += pt.Perf.ChunkMemory(pt.schedule(), m, r[0], r[1], s+c*k, K, nm, batch) - pt.Perf.WorkspaceBytes
		}
		if t := st.ExecTime(); t > plan.Bottleneck {
			plan.Bottleneck = t
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("partition: internal error: %v", err)
	}
	return plan, nil
}

// randomWorker draws k distinct GPUs of the doubled paper cluster in random
// order, so adjacent stages land on one node (PCIe) or two (InfiniBand) and
// GPU types repeat and alternate freely.
func randomWorker(r *rand.Rand, c *hw.Cluster, k int) *hw.VirtualWorker {
	gpus := c.GPUs()
	vw := &hw.VirtualWorker{}
	for _, i := range r.Perm(len(gpus))[:k] {
		vw.GPUs = append(vw.GPUs, gpus[i])
	}
	return vw
}

// randomModel draws a Skewed chain whose FLOPs are not integers, so range
// sums depend on accumulation order, and whose stash is sized so that the
// memory limit binds at some of the Nm the test sweeps.
func randomModel(r *rand.Rand, layers int) *model.Model {
	w := make([]float64, layers)
	for i := range w {
		w[i] = math.Exp(r.NormFloat64()*1.5) * 1e9 / 3
	}
	stash := int64(1) << (16 + r.Intn(9)) // 256 KiB .. 64 MiB per layer per sample, in elements
	return model.Skewed("ref", w, int64(1)<<(10+r.Intn(14)), stash)
}

// TestPartitionMatchesReferenceDP holds the tabulated DP to the reference on
// random models x worker shapes x interleave x Nm x every schedule: the same
// error-or-plan outcome and, for plans, every field equal (cuts, each Chunk
// and Stage float bit for bit, MemoryBytes, Bottleneck). One partitioner per
// schedule serves every case, so stale tables or scratch would show too.
func TestPartitionMatchesReferenceDP(t *testing.T) {
	c, err := hw.ClusterByName("paper-x2")
	if err != nil {
		t.Fatal(err)
	}
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	r := rand.New(rand.NewSource(14))
	perf := profile.Default()
	pts := map[string]*Partitioner{}
	for _, name := range sched.Names() {
		s, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pts[name] = NewSched(perf, s)
	}
	plans, failures, mixed := 0, 0, 0
	for round := 0; round < rounds; round++ {
		k := 1 + r.Intn(8)
		vw := randomWorker(r, c, k)
		if n := vw.CrossNodeBoundaries(); n > 0 && n < k-1 {
			mixed++
		}
		m := randomModel(r, k*4+r.Intn(24))
		batch := 1 + r.Intn(64)
		for _, name := range sched.Names() {
			pt := pts[name]
			for _, v := range []int{1, 2, 4} {
				pt.Interleave = v
				for nm := 1; nm <= 16; nm++ {
					got, gerr := pt.Partition(c, m, vw, nm, batch)
					want, werr := referencePartition(pt, c, m, vw, nm, batch)
					id := fmt.Sprintf("round %d %s k=%d V=%d Nm=%d L=%d", round, name, k, v, nm, len(m.Layers))
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("%s: error %v, reference %v", id, gerr, werr)
					}
					if gerr != nil {
						if errors.Is(gerr, ErrInfeasible) {
							failures++
						}
						continue
					}
					plans++
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: plan differs from the reference\n got %+v\nwant %+v", id, got, want)
					}
				}
			}
		}
	}
	// The sweep must exercise both outcomes and mixed-link workers, or it
	// proves less than it says.
	if plans == 0 || failures == 0 || mixed == 0 {
		t.Fatalf("degenerate sweep: %d plans, %d memory-infeasible, %d mixed-link workers", plans, failures, mixed)
	}
	t.Logf("%d plans and %d memory-infeasible outcomes matched; %d of %d workers mix PCIe and InfiniBand", plans, failures, mixed, rounds)
}

// TestPartitionPaperModelsMatchReferenceDP is the same check on the models
// and worker shapes the goldens are cut from.
func TestPartitionPaperModelsMatchReferenceDP(t *testing.T) {
	pt := New(profile.Default())
	for _, m := range model.PaperModels() {
		for _, spec := range hw.SingleVWConfigs() {
			c, vw := vwFor(t, spec)
			for nm := 1; nm <= 8; nm++ {
				got, gerr := pt.Partition(c, m, vw, nm, 32)
				want, werr := referencePartition(pt, c, m, vw, nm, 32)
				if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %s Nm=%d: (%+v, %v), reference (%+v, %v)", m.Name, spec, nm, got, gerr, want, werr)
				}
			}
		}
	}
}

// TestPartitionerRevalidatesItsState reassigns, between calls, each thing
// the partitioner's kept state depends on; every call must plan as a fresh
// partitioner would.
func TestPartitionerRevalidatesItsState(t *testing.T) {
	c, vw := vwFor(t, "VRGQ")
	perf := profile.Default()
	pt := NewSched(perf, sched.Interleaved)
	check := func(what string, m *model.Model, nm, batch int) {
		t.Helper()
		got, gerr := pt.Partition(c, m, vw, nm, batch)
		want, werr := referencePartition(pt, c, m, vw, nm, batch)
		if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("after %s: (%+v, %v), reference (%+v, %v)", what, got, gerr, want, werr)
		}
	}
	check("construction", model.ResNet152(), 4, 32)
	pt.Interleave = 2
	check("Interleave = 2", model.ResNet152(), 4, 32)
	pt.Sched, pt.Interleave = sched.GPipe, 0
	check("Sched = gpipe", model.ResNet152(), 2, 32)
	check("another batch", model.ResNet152(), 2, 16)
	check("another model", model.VGG19(), 2, 16)
	perf.IB.Efficiency = 0.5
	check("Perf.IB edited in place", model.VGG19(), 2, 16)
	perf.BwdFwdRatio = 3
	check("Perf.BwdFwdRatio edited in place", model.VGG19(), 2, 16)
	perf.WorkspaceBytes = 2 << 30
	check("Perf.WorkspaceBytes edited in place", model.VGG19(), 2, 16)
	perf.SetAnchor("VGG-19", 'Q', 20)
	check("SetAnchor", model.VGG19(), 2, 16)
	pt.Perf = profile.Default()
	check("Perf replaced", model.VGG19(), 2, 16)
	pt.Reset(profile.NewTables(pt.Perf, model.VGG19(), 16), sched.OneF1B, 1)
	check("Reset over another model's tables", model.ResNet152(), 2, 32)
	// A reset partitioner counts from zero and solves what it solved before
	// the reset, over the same tables, again rather than carrying it.
	m := model.ResNet152()
	tab := profile.NewTables(pt.Perf, m, 32)
	for range 2 {
		pt.Reset(tab, sched.OneF1B, 1)
		if st := pt.Stats(); st != (Stats{}) {
			t.Errorf("Reset kept Stats %+v", st)
		}
		check("Reset over the tables of the call", m, 2, 32)
		if st := pt.Stats(); st != (Stats{Solves: 1, Priced: st.Priced}) {
			t.Errorf("after Reset one call counts %+v, want one solve", st)
		}
	}
}

// TestPartitionReportsUnprofiledGPU: a GPU type the performance model has no
// rate for is a profile error, not a memory-infeasible split.
func TestPartitionReportsUnprofiledGPU(t *testing.T) {
	c, err := hw.NewCluster("VV XX", &hw.GPUType{Name: "Synthetic X", Code: 'X', MemoryBytes: 16 << 30})
	if err != nil {
		t.Fatal(err)
	}
	vw := &hw.VirtualWorker{GPUs: c.GPUs()}
	m := model.Synthetic("syn", 12, 1000, 1e9, 1000)
	pt := New(profile.Default())
	_, err = pt.Partition(c, m, vw, 1, 8)
	if err == nil {
		t.Fatal("an unprofiled GPU type must fail")
	}
	if !strings.Contains(err.Error(), `no anchor or generic rate for GPU "X"`) || errors.Is(err, ErrInfeasible) {
		t.Errorf("error = %q, want the profile's no-rate error", err)
	}
	if _, perr := pt.Perf.WholeModelTime(m, vw.GPUs[2].Type, 8); perr == nil || !strings.Contains(err.Error(), perr.Error()) {
		t.Errorf("error %q does not wrap the profile's %v", err, perr)
	}
	if nm := pt.MaxNm(c, m, vw, 8, 8); nm != 0 {
		t.Errorf("MaxNm on an unprofiled worker = %d, want 0", nm)
	}
}

// TestMaxNmCap pins MaxNm's contract at the edges of cap beside the
// brute-force property in TestMaxNmMatchesBruteForce: no Nm lies in [1, cap]
// when cap < 1, and the answer never exceeds cap.
func TestMaxNmCap(t *testing.T) {
	c, vw := vwFor(t, "RRRR")
	m := model.ResNet152()
	pt := New(profile.Default())
	for _, tc := range []struct{ cap, want int }{{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {8, 8}} {
		if got := pt.MaxNm(c, m, vw, 32, tc.cap); got != tc.want {
			t.Errorf("MaxNm(cap=%d) = %d, want %d", tc.cap, got, tc.want)
		}
	}
	// A memory-bound worker (the pair TestOneF1BAdmitsLargerMaxNm pins at
	// Maxm = 2): the answer is min(cap, Maxm).
	cl, err := hw.ClusterByName("mini")
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := hw.AllocateByTypes(cl, []string{"GG"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ cap, want int }{{0, 0}, {1, 1}, {2, 2}, {8, 2}} {
		if got := pt.MaxNm(cl, m, alloc.VWs[0], 32, tc.cap); got != tc.want {
			t.Errorf("GG MaxNm(cap=%d) = %d, want %d", tc.cap, got, tc.want)
		}
	}
}

// TestWarmPartitionAllocations is the ceiling that keeps the per-call table
// (or any per-call DP row) from creeping back: a warm partitioner allocates
// the plan it returns — the Plan, its Stages, one Chunk slab — and nothing
// else.
func TestWarmPartitionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under the race detector")
	}
	c, vw := vwFor(t, "VRGQ")
	m := model.ResNet152()
	for _, pt := range []*Partitioner{New(profile.Default()), NewInterleaved(profile.Default(), sched.Interleaved, 2)} {
		if _, err := pt.Partition(c, m, vw, 4, 32); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := pt.Partition(c, m, vw, 4, 32); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("%s V=%d: warm Partition allocates %v times, want <= 3", pt.schedule().Name(), pt.interleave(), allocs)
		}
	}
}
