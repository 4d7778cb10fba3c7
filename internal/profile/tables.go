package profile

import (
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
)

// Tables is the performance model of one (Perf, model, batch) tabulated for
// the partitioner, whose dynamic program prices thousands of layer ranges per plan:
// every range quantity StageTime, ChunkMemory and BoundaryTime re-derive by
// walking the layers is one lookup here. The values are bit-identical to
// those functions'. A Tables is immutable once built, so any number of
// goroutines may read one.
//
// What stays outside is what a caller may still change between two plans:
// the compute anchors (WholeModelTime is asked per GPU, per plan) and
// WorkspaceBytes (the caller adds it to ChunkBytes).
type Tables struct {
	perf  *Perf
	m     *model.Model
	batch int
	// pcie, ib and ratio are the Perf fields the tables were computed from;
	// Valid compares them so a Perf edited in place is not served stale
	// boundary times.
	pcie, ib LinkModel
	ratio    float64 // 1 + BwdFwdRatio

	// flops[lo*n+hi] is the forward FLOPs of layers [lo, hi), n = layers+1.
	// Each row is accumulated left to right from lo, exactly as StageTime's
	// loop does: float64 addition is not associative, so a difference of
	// prefix sums would round differently and move plans whose stage costs
	// tie to the last bit.
	flops []float64
	n     int
	total float64
	// weights[i] and stash[i] are the weight bytes and per-sample stash
	// bytes of layers [0, i). Integer sums are exact, so prefix differences
	// do equal the per-range loops.
	weights, stash []int64
	// boundary[kind][cut] is BoundaryTime(m, cut, batch, kind).
	boundary [hw.LinkInfiniBand + 1][]float64
}

// NewTables tabulates p's predictions for m at the given batch size:
// O(layers^2) time and 8*(layers+1)^2 bytes (27 KB for ResNet-152).
func NewTables(p *Perf, m *model.Model, batch int) *Tables {
	L := len(m.Layers)
	t := &Tables{
		perf: p, m: m, batch: batch,
		pcie: p.PCIe, ib: p.IB, ratio: 1 + p.BwdFwdRatio,
		n: L + 1, flops: make([]float64, (L+1)*(L+1)), total: m.TotalFwdFLOPs(),
		weights: make([]int64, L+1), stash: make([]int64, L+1),
	}
	for lo := 0; lo < L; lo++ {
		var f float64
		for hi := lo + 1; hi <= L; hi++ {
			f += m.Layers[hi-1].FwdFLOPs
			t.flops[lo*t.n+hi] = f
		}
	}
	for i := 0; i < L; i++ {
		t.weights[i+1] = t.weights[i] + m.Layers[i].WeightBytes()
		t.stash[i+1] = t.stash[i] + m.Layers[i].StashElems*model.BytesPerElem
	}
	for kind := range t.boundary {
		t.boundary[kind] = make([]float64, L)
		for cut := 0; cut < L; cut++ {
			t.boundary[kind][cut] = p.BoundaryTime(m, cut, batch, hw.LinkKind(kind))
		}
	}
	return t
}

// Valid reports whether t still describes (p, m, batch): the same model and
// performance model, and every Perf field baked into the tables unchanged.
// Models are immutable once built (internal/model), so the pointer and the
// layer count identify m.
func (t *Tables) Valid(p *Perf, m *model.Model, batch int) bool {
	return t.perf == p && t.m == m && t.batch == batch && t.n == len(m.Layers)+1 &&
		t.pcie == p.PCIe && t.ib == p.IB && t.ratio == 1+p.BwdFwdRatio
}

// Perf is the performance model the tables were built from.
func (t *Tables) Perf() *Perf { return t.perf }

// WholeModelTime is Perf.WholeModelTime for the tabulated model and batch.
func (t *Tables) WholeModelTime(g *hw.GPUType) (float64, error) {
	return t.perf.wholeModelTime(t.m.Name, t.total, g, t.batch)
}

// ChunkTime is Perf.StageTime for layers [lo, hi) on a GPU whose
// WholeModelTime is whole: SplitStage of StageTime.
//
//hetlint:hotpath
func (t *Tables) ChunkTime(whole float64, lo, hi int) (fwd, bwd float64) {
	return t.SplitStage(t.StageTime(whole, lo, hi))
}

// StageTime is the compute time of layers [lo, hi), forward and backward
// together, before ChunkTime splits it. For a fixed hi it never falls as lo
// does, in float64 and not only in the reals: row lo-1 of the FLOP table
// starts from a sum at least row lo's (layer FLOPs are non-negative) and then
// adds the same terms in the same order, and rounding is monotone; so are the
// multiplication and the division that follow, whole and total being positive.
//
//hetlint:hotpath
func (t *Tables) StageTime(whole float64, lo, hi int) float64 {
	return whole * t.flops[lo*t.n+hi] / t.total
}

// SplitStage splits a StageTime into its forward and backward parts. The
// parts add back to the stage time to within two roundings: fwd + bwd >=
// stage * (1 - 2^-51) whenever BwdFwdRatio >= 0.
//
//hetlint:hotpath
func (t *Tables) SplitStage(stage float64) (fwd, bwd float64) {
	fwd = stage / t.ratio
	return fwd, stage - fwd
}

// ChunkBytes is the weights and activation stashes of layers [lo, hi) under
// a schedule that keeps versions weight-sized buffers and stashes in-flight
// activation sets on the chunk (sched.Schedule's WeightVersions and
// ChunkStash): Perf.ChunkMemory less the per-GPU WorkspaceBytes.
//
//hetlint:hotpath
func (t *Tables) ChunkBytes(lo, hi int, versions, stashes int64) int64 {
	return versions*(t.weights[hi]-t.weights[lo]) + (t.stash[hi]-t.stash[lo])*int64(t.batch)*stashes
}

// BoundaryTime is Perf.BoundaryTime across the cut after layer cutAfter,
// which must be a layer index (the raw-input boundary -1 is never a cut).
//
//hetlint:hotpath
func (t *Tables) BoundaryTime(cutAfter int, kind hw.LinkKind) float64 {
	return t.boundary[kind][cutAfter]
}
