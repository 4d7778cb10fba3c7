package sim

import "math"

// Resource models a serially shared device (a GPU execution engine, a PCIe
// lane, a network link): at most one job occupies it at a time, and queued
// jobs are served in FIFO order.
//
// Resources track their cumulative busy time so utilization can be reported
// per device, which the Figure 3 experiment needs.
//
// The waiting queue is a head-indexed ring over a reusable backing slice of
// pointer-free job records: completion handlers are registered up front with
// Register and queued by id (SubmitID), so pushing a job copies 24 bytes with
// no write barriers and no allocation.
type Resource struct {
	eng *Engine

	busy      bool
	doneID    int32 // engine handler id for done
	busySince Time
	busyTotal Duration
	served    uint64
	queue     []job
	head      int
	cur       job
	done      EventFunc   // jobDone, bound once so that Reset can register it again
	funcs     []EventFunc // Register'd completion handlers, indexed by job.fn
}

// job is one queued unit of work. It is deliberately pointer-free so queue
// traffic stays out of the garbage collector's way.
type job struct {
	hold Duration
	a, b int32
	fn   int32 // index into funcs
}

// NewResource creates an idle resource attached to the engine.
func NewResource(eng *Engine) *Resource {
	r := &Resource{eng: eng}
	r.done = r.jobDone
	r.doneID = eng.Register(r.done)
	return r
}

// Reset returns the resource to the idle, never-used state of NewResource on
// its engine, which must have been Reset since (Engine.Reset drops the
// resource's completion handler; Reset registers it again). The queue keeps
// its capacity, so a kept resource serves run after run without reallocating.
// Handlers registered with Register stay as they are.
func (r *Resource) Reset() {
	r.busy, r.busySince, r.busyTotal, r.served, r.cur = false, 0, 0, 0, job{}
	r.queue, r.head = r.queue[:0], 0
	r.doneID = r.eng.Register(r.done)
}

// AppendState appends the resource's state relative to (its engine's Now,
// base) to dst, the resource's half of Engine.AppendState: the waiting jobs'
// count and whether one is in service, then how long it has been and that
// job, then the waiting jobs — each as its hold, its a payload less base with
// b, and its handler.
func (r *Resource) AppendState(dst []uint64, base int32) []uint64 {
	busy := uint64(0)
	if r.busy {
		busy = 1
	}
	dst = append(dst, uint64(r.QueueLen())<<1|busy)
	if r.busy {
		dst = append(dst, math.Float64bits(float64(r.eng.now-r.busySince)))
		dst = r.cur.appendState(dst, base)
	}
	for _, j := range r.queue[r.head:] {
		dst = j.appendState(dst, base)
	}
	return dst
}

func (j job) appendState(dst []uint64, base int32) []uint64 {
	return append(dst, math.Float64bits(float64(j.hold)), uint64(uint32(j.a-base))<<32|uint64(uint32(j.b)), uint64(j.fn))
}

// Shift moves the resource dt later with its engine (Engine.Shift): the job
// in service started dt later, every job's a payload grows by da, and busy
// and served are added to the busy time and the count of jobs served — what
// the stretch of the run the shift skips would have added.
func (r *Resource) Shift(dt Time, da int32, busy Duration, served uint64) {
	if r.busy {
		r.busySince += dt
		r.cur.a += da
	}
	r.busyTotal += busy
	r.served += served
	for i := r.head; i < len(r.queue); i++ {
		r.queue[i].a += da
	}
}

// Register binds a completion handler to the resource and returns its id for
// SubmitID. Handlers are registered once at setup (ids are dense from 0, in
// registration order); submitting against an unregistered id panics at
// completion time.
func (r *Resource) Register(fn EventFunc) int32 {
	r.funcs = append(r.funcs, fn)
	return int32(len(r.funcs) - 1)
}

// SubmitID enqueues a job that holds the resource for d seconds; at
// completion the Register'd handler id fires as fn(a, b, float64(d)) — the
// hold duration rides back to the caller so span bookkeeping needs no
// closure. Jobs run in submission order.
func (r *Resource) SubmitID(d Duration, id, a, b int32) {
	if d < 0 {
		panic("sim: negative hold duration")
	}
	r.push(job{hold: d, a: a, b: b, fn: id})
}

//hetlint:hotpath
func (r *Resource) push(j job) {
	// Compact once the dead prefix dominates the live region, so a queue that
	// never fully drains (a saturated pipeline stage) still reuses its backing
	// array instead of growing by one slot per job forever. Amortized O(1).
	if r.head >= 16 && r.head >= len(r.queue)-r.head {
		n := copy(r.queue, r.queue[r.head:])
		r.queue = r.queue[:n]
		r.head = 0
	}
	r.queue = append(r.queue, j)
	if !r.busy {
		r.startNext()
	}
}

//hetlint:hotpath
func (r *Resource) startNext() {
	if r.head == len(r.queue) {
		r.queue = r.queue[:0]
		r.head = 0
		r.busy = false
		return
	}
	j := r.queue[r.head]
	r.head++
	r.busy = true
	r.busySince = r.eng.Now()
	r.cur = j
	r.eng.AfterID(j.hold, r.doneID, 0, 0, 0)
}

// jobDone is the completion EventFunc for every job on this resource; the
// finished job lives in r.cur, not the event payload, because the resource is
// serial. Accounting and the hand-off to the next queued job happen before
// the caller's callback, matching the pre-pooling event order.
//
//hetlint:hotpath
func (r *Resource) jobDone(_, _ int32, _ float64) {
	r.busyTotal += Duration(r.eng.Now() - r.busySince)
	r.served++
	j := r.cur
	r.startNext()
	r.funcs[j.fn](j.a, j.b, float64(j.hold))
}

// Busy reports whether a job currently occupies the resource.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen reports the number of jobs waiting (not including the running one).
func (r *Resource) QueueLen() int { return len(r.queue) - r.head }

// Served reports how many jobs have completed.
func (r *Resource) Served() uint64 { return r.served }

// BusyTime reports cumulative time spent serving jobs, including the
// in-progress job up to the current instant.
func (r *Resource) BusyTime() Duration {
	t := r.busyTotal
	if r.busy {
		t += Duration(r.eng.Now() - r.busySince)
	}
	return t
}

// Utilization reports BusyTime divided by elapsed virtual time in [0,1].
// It returns 0 before any time has passed.
func (r *Resource) Utilization() float64 {
	if r.eng.Now() <= 0 {
		return 0
	}
	return float64(r.BusyTime()) / float64(r.eng.Now())
}
