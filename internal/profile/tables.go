package profile

import (
	"sync"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
)

// Tables is the performance model of one (model, batch, link models,
// backward ratio) tabulated for the partitioner, whose dynamic program prices
// thousands of layer ranges per plan: every range quantity StageTime,
// ChunkMemory and BoundaryTime re-derive by walking the layers is one lookup
// here. The values are bit-identical to those functions'. A Tables is
// immutable once built, so any number of goroutines may read one, and a
// process keeps one per key (TablesFor) for every Perf that agrees on it.
//
// What stays outside is what is a single Perf's own and may still change
// between two plans: the compute anchors (WholeModelTime reads them from the
// Perf it is given, per GPU, per plan) and WorkspaceBytes (the caller adds
// it to ChunkBytes).
type Tables struct {
	// key is what the content was computed from; Valid compares it, so a
	// Perf edited in place is not served stale boundary times.
	key    tablesKey
	layers int

	// flops holds the forward FLOPs of every range [lo, hi), lo < hi, packed
	// by column: column hi is flops[hi(hi-1)/2 : hi(hi+1)/2], indexed by lo
	// (see Column). Each range is still accumulated left to right from lo,
	// exactly as Perf.StageTime's loop does: float64 addition is not
	// associative, so a difference of prefix sums would round differently
	// and move plans whose stage costs tie to the last bit.
	flops []float64
	total float64
	// weights[i] and stash[i] are the weight bytes and per-sample stash
	// bytes of layers [0, i). Integer sums are exact, so prefix differences
	// do equal the per-range loops.
	weights, stash []int64
	// boundary[kind][cut] is BoundaryTime(m, cut, batch, kind).
	boundary [hw.LinkInfiniBand + 1][]float64
}

// tablesKey is everything a Tables' content depends on. Models are immutable
// once built (internal/model), so the pointer identifies m.
type tablesKey struct {
	m        *model.Model
	batch    int
	pcie, ib LinkModel
	ratio    float64 // 1 + BwdFwdRatio
}

func keyOf(p *Perf, m *model.Model, batch int) tablesKey {
	return tablesKey{m: m, batch: batch, pcie: p.PCIe, ib: p.IB, ratio: 1 + p.BwdFwdRatio}
}

// NewTables tabulates p's predictions for m at the given batch size:
// O(layers^2) time and 4*layers*(layers+1) bytes of FLOP table (13.7 KB for
// ResNet-152). The planners take theirs from TablesFor instead, which builds
// each only once.
func NewTables(p *Perf, m *model.Model, batch int) *Tables {
	L := len(m.Layers)
	t := &Tables{
		key:    keyOf(p, m, batch),
		layers: L, flops: make([]float64, L*(L+1)/2), total: m.TotalFwdFLOPs(),
		weights: make([]int64, L+1), stash: make([]int64, L+1),
	}
	for lo := 0; lo < L; lo++ {
		var f float64
		for hi := lo + 1; hi <= L; hi++ {
			f += m.Layers[hi-1].FwdFLOPs
			t.flops[hi*(hi-1)/2+lo] = f
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

// tablesCacheSize bounds the tables TablesFor keeps. A process plans few
// (model, batch, link models) keys — every hetpipe.New over the zoo at one
// batch needs one per model — so a small ring holds them all, and one that
// plans more only rebuilds what the ring evicted.
const tablesCacheSize = 16

// tablesCache is TablesFor's process-wide cache: a ring of at most
// tablesCacheSize tables that overwrites its oldest entry on a miss when
// full. Evicting never changes an answer, since a rebuilt Tables is
// bit-identical to the evicted one.
var tablesCache struct {
	mu   sync.Mutex
	tabs [tablesCacheSize]*Tables
	next int // the slot the next miss fills
}

// TablesFor returns the process's tables for (p's link models and backward
// ratio, m, batch), building them on the first request. A hit allocates
// nothing. A miss builds under the cache's lock, so a key is built once
// however many goroutines ask for it at once.
func TablesFor(p *Perf, m *model.Model, batch int) *Tables {
	key := keyOf(p, m, batch)
	c := &tablesCache
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.tabs {
		if t != nil && t.key == key {
			return t
		}
	}
	t := NewTables(p, m, batch)
	c.tabs[c.next] = t
	c.next = (c.next + 1) % tablesCacheSize
	return t
}

// Valid reports whether t describes (p, m, batch): the same model and batch,
// and every Perf field baked into the tables equal to p's.
func (t *Tables) Valid(p *Perf, m *model.Model, batch int) bool {
	return t.key == keyOf(p, m, batch) && t.layers == len(m.Layers)
}

// WholeModelTime is p.WholeModelTime for the tabulated model and batch.
func (t *Tables) WholeModelTime(p *Perf, g *hw.GPUType) (float64, error) {
	return p.wholeModelTime(t.key.m.Name, t.total, g, t.key.batch)
}

// ChunkTime is Perf.StageTime for layers [lo, hi) on a GPU whose
// WholeModelTime is whole: SplitStage of StageTime.
//
//hetlint:hotpath
func (t *Tables) ChunkTime(whole float64, lo, hi int) (fwd, bwd float64) {
	return t.SplitStage(t.StageTime(whole, lo, hi))
}

// StageTime is the compute time of layers [lo, hi), forward and backward
// together, before ChunkTime splits it: Time of Column(hi)[lo]. For a fixed
// hi it never falls as lo does, in float64 and not only in the reals: the
// sum over [lo-1, hi) reaches layer lo with a partial sum at least that
// layer's FLOPs (layer FLOPs are non-negative), where the sum over [lo, hi)
// starts, and then adds the same terms in the same order, and rounding is
// monotone; so are the multiplication and the division that follow, whole
// and total being positive.
//
//hetlint:hotpath
func (t *Tables) StageTime(whole float64, lo, hi int) float64 {
	return t.Time(whole, t.flops[hi*(hi-1)/2+lo])
}

// Column returns the forward FLOPs of every range ending at hi: element lo
// is layers [lo, hi), for 0 <= lo < hi. It aliases the tables, which the
// caller must not modify.
//
//hetlint:hotpath
func (t *Tables) Column(hi int) []float64 {
	return t.flops[hi*(hi-1)/2 : hi*(hi+1)/2 : hi*(hi+1)/2]
}

// Time is the compute time of a range of the given forward FLOPs, on a GPU
// whose WholeModelTime is whole.
//
//hetlint:hotpath
func (t *Tables) Time(whole, flops float64) float64 {
	return whole * flops / t.total
}

// SplitStage splits a StageTime into its forward and backward parts. The
// parts add back to the stage time to within two roundings: fwd + bwd >=
// stage * (1 - 2^-51) whenever BwdFwdRatio >= 0.
//
//hetlint:hotpath
func (t *Tables) SplitStage(stage float64) (fwd, bwd float64) {
	fwd = stage / t.key.ratio
	return fwd, stage - fwd
}

// ChunkBytes is the weights and activation stashes of layers [lo, hi) under
// a schedule that keeps versions weight-sized buffers and stashes in-flight
// activation sets on the chunk (sched.Schedule's WeightVersions and
// ChunkStash): Perf.ChunkMemory less the per-GPU WorkspaceBytes.
//
//hetlint:hotpath
func (t *Tables) ChunkBytes(lo, hi int, versions, stashes int64) int64 {
	return versions*(t.weights[hi]-t.weights[lo]) + (t.stash[hi]-t.stash[lo])*int64(t.key.batch)*stashes
}

// BoundaryTime is Perf.BoundaryTime across the cut after layer cutAfter,
// which must be a layer index (the raw-input boundary -1 is never a cut).
//
//hetlint:hotpath
func (t *Tables) BoundaryTime(cutAfter int, kind hw.LinkKind) float64 {
	return t.boundary[kind][cutAfter]
}
