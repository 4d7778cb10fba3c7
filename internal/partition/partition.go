// Package partition implements the Section 7 partitioning algorithm: divide
// a model's layers into k contiguous partitions, one per (possibly
// heterogeneous) GPU of a virtual worker, minimizing the maximum partition
// execution time subject to each partition fitting its GPU's memory while
// processing Nm concurrent minibatches.
//
// The paper feeds this problem to CPLEX; layer counts here are small enough
// (tens of layers, k <= 8) that an exact dynamic program over prefixes finds
// the optimum directly. A partition's execution time follows the paper's
// definition: the sum of its layers' computation time plus the time to
// receive activations (forward) and local gradients (backward) across its
// boundaries.
//
// A stage is a set of chunks, not a single contiguous range: under the
// Megatron-LM interleaved schedule each worker hosts V non-contiguous
// chunks (worker g gets chunks g, g+k, ..., g+(V-1)k of the k*V virtual
// stages), and the same DP runs over the k*V virtual pipeline with the
// GPU assignment wrapping round-robin. Contiguous plans are the degenerate
// V=1 case and take the identical code path.
//
// Pricing a layer range is O(1): the DP (planner) reads profile.Tables —
// a range table of forward FLOPs, prefix sums of weight and stash bytes,
// boundary times per cut and link kind — instead of walking the range, and
// runs on a flat slab the Partitioner reuses, so a warm solve costs O(K*L^2)
// lookups and allocates nothing: its answer is K+1 cuts (Cuts), and pricing
// them into a plan (Price) is O(K) and writes into storage the caller owns.
// Partition is the two together and allocates only the plan it returns; a
// caller that solves many problems to keep few plans (core's Nm search)
// keeps the cuts and prices only what it keeps. The tables are
// built once per (Perf, model, batch); a caller that plans one model from
// many partitioners (core: one per Deploy) shares them through NewShared.
//
// Along the Nm axis most calls do not run the whole DP. Nm enters a stage's
// cost only through its stash count, and only as feasible-or-not, so when a
// call repeats the last solved problem with stashes that did not shrink, no
// DP value can fall. If the old cuts still fit every budget they are the new
// optimum, ties included (planner.carries has the argument); if not, the DP
// re-solves in place and walks again only the entries whose old pick no
// longer fits or no longer wins (planner.solve). An ascending Nm scan — what
// core's Nm search and MaxNm's successful probes generate — therefore prices
// most plans in O(K) lookups and re-prices, on a change of cuts, only what
// moved.
package partition

import (
	"errors"
	"fmt"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// ErrInfeasible is what Partition wraps when no split of the model fits the
// worker's memory at the requested Nm. Its other errors — bad arguments, a GPU
// type the performance model cannot price — would fail at every Nm alike.
var ErrInfeasible = errors.New("partition: no memory-feasible")

// Chunk is one contiguous layer range [Lo, Hi) of a stage's chunk set,
// running as one virtual stage of the pipeline.
type Chunk struct {
	// Lo and Hi bound the layer range [Lo, Hi).
	Lo, Hi int
	// FwdTime and BwdTime are per-minibatch compute times for this chunk.
	FwdTime, BwdTime float64
	// RecvActTime is the time to receive input activations from the previous
	// virtual stage (zero for the first).
	RecvActTime float64
	// RecvGradTime is the time to receive gradients from the next virtual
	// stage (zero for the last).
	RecvGradTime float64
}

// Layers reports the number of layers in the chunk.
func (c *Chunk) Layers() int { return c.Hi - c.Lo }

// Stage is one pipeline stage of a plan: a set of model chunks bound to one
// GPU. Contiguous plans carry exactly one chunk per stage; interleaved plans
// carry V, with chunk c running as virtual stage (stage index) + c*k.
type Stage struct {
	// GPU hosts the stage.
	GPU *hw.GPU
	// Chunks is the stage's chunk set in virtual-stage order (model order).
	Chunks []Chunk
	// FwdTime and BwdTime are per-minibatch compute times summed over the
	// chunk set.
	FwdTime, BwdTime float64
	// RecvActTime is the total time to receive input activations across the
	// chunk set's leading boundaries.
	RecvActTime float64
	// RecvGradTime is the total time to receive gradients across the chunk
	// set's trailing boundaries.
	RecvGradTime float64
	// MemoryBytes is the predicted device memory requirement (weights and
	// stashes per chunk, workspace once).
	MemoryBytes int64
	// MemoryCap is the hosting GPU's capacity.
	MemoryCap int64
}

// ExecTime is the paper's partition execution time: computation plus the
// communication needed to receive activations and gradients, summed over the
// stage's chunk set.
func (s *Stage) ExecTime() float64 {
	return s.FwdTime + s.BwdTime + s.RecvActTime + s.RecvGradTime
}

// Layers reports the number of layers assigned to the stage across all its
// chunks.
func (s *Stage) Layers() int {
	n := 0
	for i := range s.Chunks {
		n += s.Chunks[i].Layers()
	}
	return n
}

// Lo is the first layer of the stage's first chunk. Together with Hi it
// bounds the contiguous range [Lo, Hi) for single-chunk stages; for
// interleaved stages the pair is only the envelope of the chunk set.
func (s *Stage) Lo() int { return s.Chunks[0].Lo }

// Hi is the last chunk's upper bound; see Lo.
func (s *Stage) Hi() int { return s.Chunks[len(s.Chunks)-1].Hi }

// Plan is a complete partitioning of a model onto a virtual worker.
type Plan struct {
	Model *model.Model
	Batch int
	// Nm is the number of concurrent minibatches the plan supports.
	Nm     int
	Stages []Stage
	// Schedule names the pipeline schedule the plan was sized for (its
	// in-flight-activation model decided the memory feasibility), e.g.
	// "hetpipe-fifo" or "1f1b".
	Schedule string
	// Interleave is the interleave degree V the plan was cut for: every
	// stage holds V chunks and the pipeline runs k*V virtual stages. 0 and 1
	// both mean contiguous single-chunk stages.
	Interleave int
	// Bottleneck is the maximum stage execution time; the pipeline's
	// steady-state period can never beat it.
	Bottleneck float64
}

// InterleaveDegree is the plan's interleave degree V, normalizing the
// zero value to 1 (contiguous).
func (p *Plan) InterleaveDegree() int {
	if p.Interleave < 1 {
		return 1
	}
	return p.Interleave
}

// VirtualStages is the depth of the virtual pipeline: k stages times the
// interleave degree.
func (p *Plan) VirtualStages() int { return len(p.Stages) * p.InterleaveDegree() }

// ChunkAt returns the chunk running as virtual stage vs: chunk vs/k of
// stage vs%k.
func (p *Plan) ChunkAt(vs int) *Chunk {
	k := len(p.Stages)
	return &p.Stages[vs%k].Chunks[vs/k]
}

// Validate checks structural invariants: every stage holds exactly V chunks,
// the k*V virtual stages cover every layer exactly once in model order, and
// every stage respects its memory cap.
func (p *Plan) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("partition: empty plan")
	}
	k, v := len(p.Stages), p.InterleaveDegree()
	for i := range p.Stages {
		if len(p.Stages[i].Chunks) != v {
			return fmt.Errorf("partition: stage %d holds %d chunks, want %d", i, len(p.Stages[i].Chunks), v)
		}
	}
	next := 0
	for j := 0; j < k*v; j++ {
		ch := p.ChunkAt(j)
		if ch.Lo != next {
			return fmt.Errorf("partition: virtual stage %d starts at %d, want %d", j, ch.Lo, next)
		}
		if ch.Hi <= ch.Lo {
			return fmt.Errorf("partition: virtual stage %d empty", j)
		}
		next = ch.Hi
	}
	if next != len(p.Model.Layers) {
		return fmt.Errorf("partition: stages cover %d layers, model has %d", next, len(p.Model.Layers))
	}
	for i := range p.Stages {
		s := &p.Stages[i]
		if s.MemoryBytes > s.MemoryCap {
			return fmt.Errorf("partition: stage %d needs %d bytes, cap %d", i, s.MemoryBytes, s.MemoryCap)
		}
	}
	return nil
}

// Partitioner computes plans using a performance model.
//
// A Partitioner keeps the cost tables of the last (Perf, model, batch) it
// planned and its dynamic program's scratch between calls, so a run of
// Cuts, Partition and MaxNm calls for one model — what every deployment
// makes — builds the tables once and allocates nothing but the plans
// Partition returns. It also keeps the problem its last successful call
// solved — the DP's constants and the optimal cuts — so a call that differs
// from it only in stashes that did not shrink (the next Nm up, for the same
// kind of worker) returns those cuts without running the DP whenever they
// still fit (planner.carries), and otherwise re-solves only the DP entries
// that moved (planner.solve). That state is revalidated on every call
// against what it depends on (the exported fields may be reassigned at any
// time; the solved problem is compared constant by constant and dropped by
// any call that fails; Price reads none of it), and it makes a Partitioner
// unsafe for concurrent use: give each goroutine its own.
type Partitioner struct {
	Perf *profile.Perf
	// Sched is the pipeline schedule the plans are sized for; nil means
	// sched.Default() (hetpipe-fifo). The schedule's in-flight-activation
	// model decides memory feasibility — 1F1B's smaller footprint admits
	// splits (and Nm values, see MaxNm) that FIFO cannot.
	Sched sched.Schedule
	// Interleave is the interleave degree V: each stage is cut into V
	// chunks and the DP runs over k*V virtual stages. 0 and 1 both mean
	// contiguous stages; V > 1 requires a schedule with SupportsInterleave.
	Interleave int

	tab   *profile.Tables
	dp    planner
	stats Stats
}

// Stats counts what a Partitioner's Cuts and Partition calls did since it was
// made (MaxNm's probes included); calls rejected before planning count
// nowhere, and Price counts nowhere.
type Stats struct {
	// Solves is the calls that ran the dynamic program and Carried the calls
	// that returned the previous call's cuts instead; Infeasible is the
	// solves that found no memory-feasible split.
	Solves, Carried, Infeasible int
	// Priced is the cuts the solves' walks examined past the memory check:
	// the DP's work, which a re-solve spends only on the entries that moved.
	Priced int
}

// Stats reports the partitioner's call counts so far.
func (pt *Partitioner) Stats() Stats { return pt.stats }

// New returns a partitioner over the given performance model, sized for the
// default hetpipe-fifo schedule.
func New(perf *profile.Perf) *Partitioner {
	return &Partitioner{Perf: perf}
}

// NewSched returns a partitioner whose memory model follows the given
// pipeline schedule.
func NewSched(perf *profile.Perf, s sched.Schedule) *Partitioner {
	return &Partitioner{Perf: perf, Sched: s}
}

// NewInterleaved returns a partitioner that cuts each stage into v chunks
// under the given schedule (which must support interleaving when v > 1).
func NewInterleaved(perf *profile.Perf, s sched.Schedule, v int) *Partitioner {
	return &Partitioner{Perf: perf, Sched: s, Interleave: v}
}

// NewShared is NewInterleaved over cost tables the caller already holds
// (they are immutable, so many partitioners may share one): planning the
// tables' model at their batch size then builds nothing.
func NewShared(tab *profile.Tables, s sched.Schedule, v int) *Partitioner {
	return &Partitioner{Perf: tab.Perf(), Sched: s, Interleave: v, tab: tab}
}

// schedule resolves the partitioner's schedule, defaulting to hetpipe-fifo.
func (pt *Partitioner) schedule() sched.Schedule { return sched.Or(pt.Sched) }

// interleave resolves the partitioner's interleave degree, defaulting to 1.
func (pt *Partitioner) interleave() int {
	if pt.Interleave < 1 {
		return 1
	}
	return pt.Interleave
}

// Partition computes the optimal plan for running m on the virtual worker's
// GPUs (in stage order) with Nm concurrent minibatches. The cluster provides
// interconnect classification between adjacent virtual stages. It returns an
// error when no memory-feasible split exists, or when the performance model
// has no compute rate for one of the worker's GPU types.
//
// At interleave degree V the DP runs over K = k*V virtual stages with the
// GPU assignment wrapping round-robin (virtual stage j runs on GPU j%k), so
// worker g ends up with the non-contiguous chunk set g, g+k, ..., g+(V-1)k —
// the Megatron-LM placement. V = 1 is the degenerate contiguous case and
// executes the identical sequence of cost evaluations.
//
// Partition is Cuts, then Price into a new plan, then Validate.
func (pt *Partitioner) Partition(c *hw.Cluster, m *model.Model, vw *hw.VirtualWorker, nm, batch int) (*Plan, error) {
	cuts, err := pt.Cuts(c, m, vw, nm, batch)
	if err != nil {
		return nil, err
	}
	plan := new(Plan)
	if err := pt.Price(plan, c, m, vw, nm, batch, cuts); err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("partition: internal error: %v", err)
	}
	return plan, nil
}

// Cuts runs Partition's dynamic program and returns the optimal cuts alone:
// virtual stage j holds layers [cuts[j], cuts[j+1]), with cuts[0] = 0 and
// cuts[K] the model's layer count. The slice is the partitioner's scratch,
// valid until its next call; Price turns it into a plan. A warm Cuts
// allocates nothing unless it fails. Its errors, its Stats and the carry
// state it leaves are Partition's.
func (pt *Partitioner) Cuts(c *hw.Cluster, m *model.Model, vw *hw.VirtualWorker, nm, batch int) ([]int, error) {
	ok, err := pt.solve(c, m, vw, nm, batch)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w %d-way split of %s for Nm=%d batch=%d on %s",
			ErrInfeasible, pt.dp.K, m.Name, nm, batch, vw.TypeString())
	}
	return pt.dp.cuts, nil
}

// solve is Cuts without building the infeasibility error: ok reports whether
// a memory-feasible split exists, err any other failure.
func (pt *Partitioner) solve(c *hw.Cluster, m *model.Model, vw *hw.VirtualWorker, nm, batch int) (ok bool, err error) {
	k := len(vw.GPUs)
	L := len(m.Layers)
	V := pt.interleave()
	K := k * V
	sc := pt.schedule()
	switch {
	case k == 0:
		return false, fmt.Errorf("partition: virtual worker has no GPUs")
	case nm < 1:
		return false, fmt.Errorf("partition: Nm must be >= 1, got %d", nm)
	case batch < 1:
		return false, fmt.Errorf("partition: batch must be >= 1, got %d", batch)
	case V > 1 && !sc.SupportsInterleave():
		return false, fmt.Errorf("partition: schedule %q does not support interleave degree %d", sc.Name(), V)
	case L < K:
		return false, fmt.Errorf("partition: model %s has %d layers, fewer than %d virtual stages (%d stages x interleave %d)",
			m.Name, L, K, k, V)
	}
	p := &pt.dp
	grown, err := p.setup(pt.tables(m, batch), sc, c, vw, L, V, nm)
	if err != nil {
		return false, err
	}
	if grown && p.carries() {
		pt.stats.Carried++
	} else {
		pt.stats.Solves++
		priced, ok := p.solve(grown)
		pt.stats.Priced += priced
		if !ok {
			pt.stats.Infeasible++
			return false, nil
		}
	}
	p.solved = true
	return true, nil
}

// tables returns the cost tables for (Perf, m, batch), building them when the
// partitioner holds none for those.
func (pt *Partitioner) tables(m *model.Model, batch int) *profile.Tables {
	if pt.tab == nil || !pt.tab.Valid(pt.Perf, m, batch) {
		pt.tab = profile.NewTables(pt.Perf, m, batch)
	}
	return pt.tab
}

// Price fills plan with the plan cuts describe for m on vw's GPUs at nm:
// each chunk's times and bytes, each stage's sums, the bottleneck. The cuts
// need not be this partitioner's last: cuts Cuts returned at nm for any
// worker with vw's GPU types and links price to the plan Partition returns
// for vw at nm, bit for bit. Price reuses plan's Stages and
// Chunks storage when the plan already holds k stages of V chunks each (a
// plan Price filled before, for a worker of vw's size) and allocates both
// otherwise, so that storage must be plan's own. Price does not Validate.
func (pt *Partitioner) Price(plan *Plan, c *hw.Cluster, m *model.Model, vw *hw.VirtualWorker, nm, batch int, cuts []int) error {
	k, V := len(vw.GPUs), pt.interleave()
	K := k * V
	if k == 0 || len(cuts) != K+1 {
		return fmt.Errorf("partition: %d cuts for %d virtual stages", len(cuts), K)
	}
	tab, sc := pt.tables(m, batch), pt.schedule()
	versions := int64(sc.WeightVersions())
	stages := plan.Stages
	if !plan.shaped(k, V) {
		stages = make([]Stage, k)
		// One slab holds every stage's chunk set; the capped windows keep
		// one stage's appends out of the next stage's chunks.
		chunks := make([]Chunk, K)
		for s := range stages {
			stages[s].Chunks = chunks[s*V : (s+1)*V : (s+1)*V]
		}
	}
	*plan = Plan{Model: m, Batch: batch, Nm: nm, Stages: stages, Schedule: sc.Name(), Interleave: V}
	for s := range stages {
		g := vw.GPUs[s]
		stages[s] = Stage{GPU: g, Chunks: stages[s].Chunks, MemoryCap: g.Type.MemoryBytes,
			MemoryBytes: pt.Perf.WorkspaceBytes} // once per GPU, however many chunks
	}
	for j := 0; j < K; j++ {
		g := vw.GPUs[j%k]
		whole, err := tab.WholeModelTime(g.Type)
		if err != nil {
			return fmt.Errorf("partition: virtual worker %s: %w", vw.TypeString(), err)
		}
		lo, hi := cuts[j], cuts[j+1]
		ch := Chunk{Lo: lo, Hi: hi}
		ch.FwdTime, ch.BwdTime = tab.ChunkTime(whole, lo, hi)
		if j > 0 {
			ch.RecvActTime = tab.BoundaryTime(lo-1, c.LinkBetween(vw.GPUs[(j-1)%k], g))
		}
		if j < K-1 {
			ch.RecvGradTime = tab.BoundaryTime(hi-1, c.LinkBetween(g, vw.GPUs[(j+1)%k]))
		}
		st := &stages[j%k]
		st.Chunks[j/k] = ch
		st.FwdTime += ch.FwdTime
		st.BwdTime += ch.BwdTime
		st.RecvActTime += ch.RecvActTime
		st.RecvGradTime += ch.RecvGradTime
		st.MemoryBytes += tab.ChunkBytes(lo, hi, versions, int64(sc.ChunkStash(j, K, nm)))
	}
	for s := range stages {
		if t := stages[s].ExecTime(); t > plan.Bottleneck {
			plan.Bottleneck = t
		}
	}
	return nil
}

// shaped reports whether the plan holds k stages of v chunks each, the
// storage Price can fill in place.
func (p *Plan) shaped(k, v int) bool {
	if len(p.Stages) != k {
		return false
	}
	for s := range p.Stages {
		if len(p.Stages[s].Chunks) != v {
			return false
		}
	}
	return true
}

// MaxNm finds the largest Nm in [1, cap] for which a memory-feasible plan
// exists — the paper's Maxm for the virtual worker — under the
// partitioner's schedule and interleave degree. A 1F1B partitioner admits a
// larger Maxm than a FIFO one on memory-constrained workers because its
// per-stage stash stops growing once Nm exceeds the stage depth; an
// interleaved partitioner's stash bound runs over the k*V virtual depth. It
// returns 0 when even Nm=1 does not fit, or when cap < 1.
//
// Feasibility is monotone — memory grows with Nm, so what fits at nm fits
// below it — which is what lets the search bisect. It probes Nm=1 first, then
// only values it has not yet decided; successful probes ascend (1, 5, 7, 8
// under cap 8), so each carries its predecessor's cuts when they still fit
// and re-solves only what moved when they do not. The probes ask only for
// feasibility, so they price no plan: a warm MaxNm allocates nothing.
func (pt *Partitioner) MaxNm(c *hw.Cluster, m *model.Model, vw *hw.VirtualWorker, batch, cap int) int {
	feasible := func(nm int) bool {
		ok, err := pt.solve(c, m, vw, nm, batch)
		return ok && err == nil
	}
	if cap < 1 || !feasible(1) {
		return 0
	}
	lo, hi := 1, cap
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
