package sim

import "math"

// Resource models a serially shared device (a GPU execution engine, a PCIe
// lane, a network link): at most one job occupies it at a time, and queued
// jobs are served in FIFO order.
//
// Resources track their cumulative busy time so utilization can be reported
// per device, which the Figure 3 experiment needs.
//
// A resource has one completion handler, bound at NewResource; a job carries
// only its hold and the handler's two payload words. The waiting queue is a
// head-indexed ring over a reusable backing slice of these pointer-free
// 16-byte records, so Submit copies a job with no write barriers and no
// allocation.
type Resource struct {
	eng *Engine

	busy      bool
	doneID    int32 // engine handler id for done
	busySince Time
	busyTotal Duration
	queue     []job
	head      int
	cur       job
	done      EventFunc // jobDone, bound once so that Reset can register it again
	fn        EventFunc // the completion handler every job fires
}

// job is one queued unit of work. It is deliberately pointer-free so queue
// traffic stays out of the garbage collector's way.
type job struct {
	hold Duration
	a, b int32
}

// NewResource creates an idle resource attached to the engine; every job it
// runs completes through fn.
func NewResource(eng *Engine, fn EventFunc) *Resource {
	r := &Resource{eng: eng, fn: fn}
	r.done = r.jobDone
	r.doneID = eng.Register(r.done)
	return r
}

// Reset returns the resource to the idle, never-used state of NewResource on
// its engine, which must have been Reset since (Engine.Reset drops the
// resource's completion handler; Reset registers it again). The queue keeps
// its capacity, so a kept resource serves run after run without reallocating.
// The completion handler stays as it is.
func (r *Resource) Reset() {
	r.busy, r.busySince, r.busyTotal, r.cur = false, 0, 0, job{}
	r.queue, r.head = r.queue[:0], 0
	r.doneID = r.eng.Register(r.done)
}

// Reserve sizes the waiting queue for n jobs at once, the one being
// submitted included: a queue that never holds more than n then never grows,
// since push compacts a full queue whose live part fits in half of it. It
// only ever enlarges the backing array, so a kept resource that was sized
// before allocates nothing.
func (r *Resource) Reserve(n int) {
	if live := len(r.queue) - r.head; cap(r.queue) < 2*n-1 {
		q := make([]job, live, max(2*n-1, live))
		copy(q, r.queue[r.head:])
		r.queue, r.head = q, 0
	}
}

// Hint returns the head of AppendState, which sums the resource's state up
// in two words: the waiting jobs' count and whether one is in service, and
// how long that job has been in service (zero when none is).
func (r *Resource) Hint() (queue, served uint64) {
	queue = uint64(len(r.queue)-r.head) << 1
	if r.busy {
		queue |= 1
		served = math.Float64bits(float64(r.eng.now - r.busySince))
	}
	return queue, served
}

// AppendState appends the resource's state relative to (its engine's Now,
// base) to dst, the resource's half of Engine.AppendState: the waiting jobs'
// count and whether one is in service, then how long it has been and that
// job (Hint), then the waiting jobs — each as its hold and its a payload less
// base with b.
func (r *Resource) AppendState(dst []uint64, base int32) []uint64 {
	queue, served := r.Hint()
	dst = append(dst, queue)
	if r.busy {
		dst = r.cur.appendState(append(dst, served), base)
	}
	for _, j := range r.queue[r.head:] {
		dst = j.appendState(dst, base)
	}
	return dst
}

func (j job) appendState(dst []uint64, base int32) []uint64 {
	return append(dst, math.Float64bits(float64(j.hold)), uint64(uint32(j.a-base))<<32|uint64(uint32(j.b)))
}

// Shift moves the resource dt later with its engine (Engine.Shift): the job
// in service started dt later, every job's a payload grows by da, and busy is
// added to the busy time — what the stretch of the run the shift skips would
// have added.
func (r *Resource) Shift(dt Time, da int32, busy Duration) {
	if r.busy {
		r.busySince += dt
		r.cur.a += da
	}
	r.busyTotal += busy
	for i := r.head; i < len(r.queue); i++ {
		r.queue[i].a += da
	}
}

// Submit enqueues a job that holds the resource for d seconds; at completion
// the resource's handler fires as fn(a, b, float64(d)) — the hold duration
// rides back to the caller so span bookkeeping needs no closure. Jobs run in
// submission order.
func (r *Resource) Submit(d Duration, a, b int32) {
	if d < 0 {
		panic("sim: negative hold duration")
	}
	r.push(job{hold: d, a: a, b: b})
}

//hetlint:hotpath
func (r *Resource) push(j job) {
	// A full queue compacts instead of growing while its dead prefix is at
	// least its live region, so a queue that never fully drains (a saturated
	// pipeline stage) reuses its backing array: it grows only when more than
	// half of it is live. Amortized O(1), since a compaction leaves at least
	// half the array free.
	if len(r.queue) == cap(r.queue) && r.head > 0 && r.head >= len(r.queue)-r.head {
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
	j := r.cur
	r.startNext()
	r.fn(j.a, j.b, float64(j.hold))
}

// Busy reports whether a job currently occupies the resource.
func (r *Resource) Busy() bool { return r.busy }

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
