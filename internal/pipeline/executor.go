package pipeline

import (
	"slices"

	"hetpipe/internal/partition"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
	"hetpipe/internal/trace"
)

// StageTime is one virtual stage's row of the executor's time table, in
// seconds per minibatch.
type StageTime struct {
	// Fwd and Bwd are the chunk's compute times.
	Fwd, Bwd float64
	// RecvAct and RecvGrad are the times to receive input activations from
	// the previous virtual stage and gradients from the next.
	RecvAct, RecvGrad float64
}

// Times builds a plan's time table: one row per virtual stage, chunk vs/k of
// stage vs%k, every entry rounded to a multiple of sim's quantum. That rounding
// (at most half a quantum, about 0.45 ps, per entry) is what makes a run's
// times exact sums (package sim), and with them its steady state decidable
// (steady.go). The caller may scale rows before handing the table to
// NewExecutor (serving stretches RecvAct by a degraded link's factor).
func Times(plan *partition.Plan) []StageTime { return timesInto(nil, plan) }

// timesInto is Times in dst's storage.
func timesInto(dst []StageTime, plan *partition.Plan) []StageTime {
	dst = slices.Grow(dst[:0], plan.VirtualStages())[:plan.VirtualStages()]
	for vs := range dst {
		dst[vs] = timesRow(plan, vs)
	}
	return dst
}

func timesRow(plan *partition.Plan, vs int) StageTime {
	c := plan.ChunkAt(vs)
	return StageTime{
		Fwd: sim.Quantize(c.FwdTime), Bwd: sim.Quantize(c.BwdTime),
		RecvAct: sim.Quantize(c.RecvActTime), RecvGrad: sim.Quantize(c.RecvGradTime),
	}
}

// trip is the row's share of a lone minibatch's round trip: every task and
// receive it charges, summed.
func (t StageTime) trip() float64 { return t.Fwd + t.Bwd + t.RecvAct + t.RecvGrad }

// SameInputs reports whether New reads the same pipeline out of plans a and
// b: equal Nm, stage count, interleave degree and batch, and equal time tables
// (Times, element-wise). What else a plan carries — its GPUs, layer ranges,
// memory figures — no simulation looks at, so under equal Configs two such
// plans fire the same events at the same times.
func SameInputs(a, b *partition.Plan) bool {
	if a.Nm != b.Nm || len(a.Stages) != len(b.Stages) || a.InterleaveDegree() != b.InterleaveDegree() || a.Batch != b.Batch {
		return false
	}
	for vs := range a.VirtualStages() {
		if timesRow(a, vs) != timesRow(b, vs) {
			return false
		}
	}
	return true
}

// Link is the stage index the TaskTime hook receives for an overlapped
// transfer, which rides the interconnect rather than a stage device.
const Link = -1

// ExecConfig parameterizes an Executor.
type ExecConfig struct {
	// Times is the per-virtual-stage time table (see Times); the executor
	// keeps the slice. Its length K must be a multiple of GPUs.
	Times []StageTime
	// GPUs is the number of stage devices k; virtual stage vs runs on GPU
	// vs%k.
	GPUs int
	// Schedule declares the three decisions (Inject, Pick, OverlapRecv).
	Schedule sched.Schedule
	// ForwardOnly runs the graph's forward half alone, as inference serving
	// does: tasks run in arrival order whatever the schedule picks — no
	// backward pass exists to prefer or to retire a stash — and every
	// minibatch leaves through AtEnd.
	ForwardOnly bool
	// InFlight is the most minibatches the caller ever keeps inside the
	// graph at once; it sizes the ready rings and the devices' queues.
	InFlight int
	// TaskTime, when non-nil, maps a task's base duration to the one to use
	// (Config.TaskTime); transfers pass Link as the stage.
	TaskTime func(p, g int, base float64) float64
	// Trace, when non-nil, records every task and transfer span.
	Trace *trace.Trace
	// AtEnd fires when minibatch p's forward leaves the last virtual stage of
	// a graph that does not fuse a backward onto it (wave injection, forward
	// only). Done fires when p's backward leaves virtual stage 0.
	AtEnd, Done func(p int)
}

// Task kinds, packed with the virtual stage into the b payload of a device
// completion or transfer event as vs<<2|kind. A transfer carries the kind of
// the task it feeds: kindFwd for activations, kindBwd for gradients.
const (
	kindFwd int32 = iota
	kindBwd
	kindFused // forward and backward of the last virtual stage as one task
)

// Executor is the one task-graph mechanism behind every schedule and behind
// serving: it walks minibatches down the plan's K = k*V virtual stages and
// (unless forward-only) back up, over one sim.Resource per GPU. Three
// schedule-declared decisions select its behaviour — see the package comment
// for the table:
//
//   - receive: folded into the receiving task's duration, or overlapped as a
//     pure engine delay with its own Transfer span (the link is modeled as a
//     dedicated DMA channel, so transfers keep minibatch order);
//   - pick: arrival order submits every ready task straight to its device,
//     whose FIFO queue is the ready list; backward-first parks ready tasks in
//     per-virtual-stage rings and submits one at a time, so each GPU is a
//     single-server queue multiplexing its V chunks;
//   - inject: under slot injection the last virtual stage runs a minibatch's
//     forward and backward as one fused task; under wave injection (and
//     forward-only) the forward ends at AtEnd and the owner decides when
//     Backward re-enters it.
//
// All device completions run through one handler registered once per device
// and all transfer arrivals through one engine handler, dispatching on the
// task kind packed into the payload; the x payload is the task's exact
// submitted duration (or the transfer's start time), from which trace spans
// are reconstructed bit-identically on the hosting GPU's row. The rings are
// head-indexed windows of one slab, so the steady state schedules without
// allocating.
type Executor struct {
	eng   *sim.Engine
	k, kv int
	times []StageTime
	gpus  []*sim.Resource // GPU g < k is gpus[g]; devices beyond k are kept for later runs

	overlap   bool // receives run as engine delays
	backFirst bool // ring pick instead of straight-to-device
	fused     bool // last virtual stage fuses forward and backward

	taskTime    func(p, g int, base float64) float64
	trace       *trace.Trace
	atEnd, done func(p int)

	onTask, onXfer sim.EventFunc // taskDone and xferDone, bound once
	xferID         int32         // engine handler for overlapped transfers

	// Backward-first state. Ring (vs, kind) is the ringCap-wide window of slab
	// at (2*vs+kind)*ringCap.
	stages  []vstage
	slab    []int32
	ringCap int32
}

// vstage is one virtual stage's pick state: the minibatches whose inputs
// have arrived, in arrival (== minibatch) order, per task kind; outstanding
// counts forwards run here but not yet retired by a backward.
type vstage struct {
	outstanding int32
	ring        [2]struct{ head, n int32 }
}

// NewExecutor builds the executor's devices and handlers on the engine.
func NewExecutor(eng *sim.Engine, cfg ExecConfig) *Executor {
	x := new(Executor)
	x.reset(eng, cfg)
	return x
}

// reset initialises the executor for cfg on eng, which is fresh or Reset
// since the executor's last run on it: the devices it already has there are
// Reset (their handler stays registered on them) and only missing ones are
// built, and the ready rings keep their storage.
func (x *Executor) reset(eng *sim.Engine, cfg ExecConfig) {
	if x.eng != eng {
		x.eng, x.gpus, x.onTask = eng, x.gpus[:0], x.taskDone // devices live on one engine
	}
	x.k, x.kv, x.times = cfg.GPUs, len(cfg.Times), cfg.Times
	x.overlap = cfg.Schedule.OverlapRecv()
	x.backFirst = !cfg.ForwardOnly && cfg.Schedule.Pick() == sched.PickBackwardFirst
	x.fused = !cfg.ForwardOnly && cfg.Schedule.Inject() != sched.InjectWave
	x.taskTime, x.trace, x.atEnd, x.done = cfg.TaskTime, cfg.Trace, cfg.AtEnd, cfg.Done
	for _, dev := range x.gpus[:min(len(x.gpus), x.k)] {
		dev.Reset()
	}
	x.gpus = slices.Grow(x.gpus, max(x.k-len(x.gpus), 0))
	for len(x.gpus) < x.k {
		x.gpus = append(x.gpus, sim.NewResource(x.eng, x.onTask))
	}
	// A device queues at most one task per minibatch in flight, since each
	// has one task ready or running at a time, and under backward-first pick
	// one task at a time.
	queue := cfg.InFlight
	if x.backFirst {
		queue = 1
	}
	for _, dev := range x.gpus[:x.k] {
		dev.Reserve(queue)
	}
	if x.overlap {
		if x.onXfer == nil {
			x.onXfer = x.xferDone
		}
		x.xferID = x.eng.Register(x.onXfer)
	}
	x.stages, x.slab = x.stages[:0], x.slab[:0]
	if x.backFirst {
		x.ringCap = int32(cfg.InFlight)
		x.stages = append(x.stages, make([]vstage, x.kv)...)
		x.slab = slices.Grow(x.slab, 2*x.kv*cfg.InFlight)[:2*x.kv*cfg.InFlight]
	}
}

// Devices returns the per-GPU compute resources, for utilization reports.
func (x *Executor) Devices() []*sim.Resource { return x.gpus[:x.k] }

// gpu is the device hosting virtual stage vs, vs % k, without paying the
// division on a contiguous plan's k stages.
//
//hetlint:hotpath
func (x *Executor) gpu(vs int) int {
	if vs < x.k {
		return vs
	}
	return vs % x.k
}

// Enter admits minibatch p at virtual stage 0.
//
//hetlint:hotpath
func (x *Executor) Enter(p int) { x.ready(kindFwd, p, 0) }

// backward starts minibatch p's backward pass on the last virtual stage; the
// owner of an unfused graph calls it after AtEnd(p).
//
//hetlint:hotpath
func (x *Executor) backward(p int) { x.ready(kindBwd, p, x.kv-1) }

// time resolves a duration through the TaskTime hook; with no hook installed
// the base duration passes through unchanged.
//
//hetlint:hotpath
func (x *Executor) time(p, g int, base float64) float64 {
	if x.taskTime == nil {
		return base
	}
	return x.taskTime(p, g, base)
}

// deliver routes minibatch p's boundary tensor to virtual stage vs: a pure
// transfer delay under overlap when the boundary costs time (the send is
// asynchronous for the sender and does not occupy the receiving GPU),
// otherwise the task is ready now and the receive is charged to its duration.
//
//hetlint:hotpath
func (x *Executor) deliver(kind int32, p, vs int) {
	if x.overlap {
		d := x.times[vs].RecvGrad
		if kind == kindFwd {
			d = x.times[vs].RecvAct
		}
		if d > 0 {
			x.eng.AfterID(sim.Duration(x.time(p, Link, d)), x.xferID, int32(p), int32(vs)<<2|kind, float64(x.eng.Now()))
			return
		}
	}
	x.ready(kind, p, vs)
}

//hetlint:hotpath
func (x *Executor) xferDone(a, b int32, start float64) {
	p, vs, kind := int(a), int(b>>2), b&3
	if x.trace != nil {
		x.trace.Add(x.gpu(vs), p, trace.Transfer, sim.Time(start), x.eng.Now())
	}
	x.ready(kind, p, vs)
}

// ready is the pick decision: minibatch p's task of the given kind on
// virtual stage vs has its input. Arrival order hands it straight to the
// device; backward-first parks it in ring (vs, kind) and lets the GPU re-pick.
//
//hetlint:hotpath
func (x *Executor) ready(kind int32, p, vs int) {
	if !x.backFirst {
		x.submit(kind, p, vs)
		return
	}
	r := &x.stages[vs].ring[kind]
	if r.n == x.ringCap {
		panic("pipeline: more minibatches in the graph than ExecConfig.InFlight")
	}
	i := r.head + r.n
	if i >= x.ringCap {
		i -= x.ringCap
	}
	x.slab[(int32(2*vs)+kind)*x.ringCap+i] = int32(p)
	r.n++
	x.tryGPU(x.gpu(vs))
}

// pop takes the oldest ready minibatch of ring (vs, kind).
//
//hetlint:hotpath
func (x *Executor) pop(kind int32, vs int) int {
	r := &x.stages[vs].ring[kind]
	p := x.slab[(int32(2*vs)+kind)*x.ringCap+r.head]
	if r.head++; r.head == x.ringCap {
		r.head = 0
	}
	r.n--
	return int(p)
}

// ringAt is the slab index of the i-th oldest entry of ring (vs, kind).
func (x *Executor) ringAt(kind int32, vs int, i int32) int32 {
	j := x.stages[vs].ring[kind].head + i
	if j >= x.ringCap {
		j -= x.ringCap
	}
	return (int32(2*vs)+kind)*x.ringCap + j
}

// appendState appends the pick state relative to minibatch base to dst:
// per virtual stage its outstanding forwards and its two rings' minibatches,
// oldest first, less base. Where the rings start in the slab is not state.
func (x *Executor) appendState(dst []uint64, base int32) []uint64 {
	for vs := range x.stages {
		st := &x.stages[vs]
		dst = append(dst, uint64(st.outstanding), uint64(st.ring[kindFwd].n)<<32|uint64(st.ring[kindBwd].n))
		for kind := kindFwd; kind <= kindBwd; kind++ {
			for i := range st.ring[kind].n {
				dst = append(dst, uint64(uint32(x.slab[x.ringAt(kind, vs, i)]-base)))
			}
		}
	}
	return dst
}

// shift adds da to every minibatch number waiting in a ring (Runner.jump).
func (x *Executor) shift(da int32) {
	for vs := range x.stages {
		for kind := kindFwd; kind <= kindBwd; kind++ {
			for i := range x.stages[vs].ring[kind].n {
				x.slab[x.ringAt(kind, vs, i)] += da
			}
		}
	}
}

// stamped is the handler whose engine events carry (minibatch, instant),
// for sim.Engine.AppendState and Shift: the overlapped transfers', if any.
func (x *Executor) stamped() int32 {
	if x.overlap {
		return x.xferID
	}
	return -1
}

// tryGPU picks the next task for an idle GPU g across its chunk set: the
// deepest pending backward first, then the deepest admissible forward.
// Depth-first selection drives the frontier minibatch toward completion,
// which is what retires stashes fastest and reproduces Megatron's
// interleaved steady state; backward-first is what produces the strict
// alternation of 1F1B once each stage's K-vs-1 warmup forwards have run.
//
//hetlint:hotpath
func (x *Executor) tryGPU(g int) {
	if x.gpus[g].Busy() {
		return
	}
	for vs := x.kv - x.k + g; vs >= 0; vs -= x.k {
		if x.stages[vs].ring[kindBwd].n > 0 {
			x.submit(kindBwd, x.pop(kindBwd, vs), vs)
			return
		}
	}
	for vs := x.kv - x.k + g; vs >= 0; vs -= x.k {
		if st := &x.stages[vs]; st.ring[kindFwd].n > 0 && int(st.outstanding) < x.kv-vs {
			x.submit(kindFwd, x.pop(kindFwd, vs), vs)
			return
		}
	}
}

// submit queues minibatch p's task on the GPU hosting virtual stage vs. A
// folded receive serializes with computation, matching the paper's partition
// cost model; an overlapped one already ran as a delay.
//
//hetlint:hotpath
func (x *Executor) submit(kind int32, p, vs int) {
	t := &x.times[vs]
	base, recv := t.Bwd, t.RecvGrad
	if kind == kindFwd {
		base, recv = t.Fwd, t.RecvAct
	}
	if !x.overlap {
		base = recv + base
	}
	if kind == kindFwd && x.fused && vs == x.kv-1 {
		kind, base = kindFused, base+t.Bwd
	}
	g := x.gpu(vs)
	x.gpus[g].Submit(sim.Duration(x.time(p, g, base)), int32(p), int32(vs)<<2|kind)
}

// taskDone is every device's completion handler. The order is the golden:
// record the span, hand the minibatch on (downstream, upstream, or out of the
// graph), then re-pick on this GPU.
//
//hetlint:hotpath
func (x *Executor) taskDone(a, b int32, hold float64) {
	p, vs, kind := int(a), int(b>>2), b&3
	g := x.gpu(vs)
	if x.trace != nil {
		now := x.eng.Now()
		start, span := now-sim.Time(hold), trace.Forward
		switch kind {
		case kindBwd:
			span = trace.Backward
		case kindFused:
			mid := now - sim.Time(x.time(p, g, x.times[vs].Bwd))
			x.trace.Add(g, p, trace.Forward, start, mid)
			start, span = mid, trace.Backward
		}
		x.trace.Add(g, p, span, start, now)
	}
	if kind == kindFwd {
		if x.backFirst {
			x.stages[vs].outstanding++ // stashed until its backward runs here
		}
		if vs < x.kv-1 {
			x.deliver(kindFwd, p, vs+1)
		} else {
			x.atEnd(p)
		}
	} else {
		if x.backFirst && kind == kindBwd {
			x.stages[vs].outstanding--
		}
		if vs > 0 {
			x.deliver(kindBwd, p, vs-1)
		} else {
			x.done(p)
		}
	}
	if x.backFirst {
		x.tryGPU(g)
	}
}
