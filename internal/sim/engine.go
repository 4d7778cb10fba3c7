// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order (a
// monotonically increasing sequence number breaks ties), which makes every
// simulation run fully reproducible.
//
// The queue is a sorted ring of (time, sequence, slot) keys over a pooled,
// generation-checked event arena: scheduling an event reuses a free arena
// slot instead of allocating, the ring orders int32 slot ids instead of
// pointers, and no interface boxing happens anywhere on the hot path. The
// clock never runs backwards and a simulation's queue is short, so a push
// scans from the ring's tail — usually not far — and a pop advances its head.
// Steady-state simulations therefore run allocation-free inside the engine;
// the only allocations are the arena's and the ring's one-time growth to the
// peak number of concurrently pending events. Every event is a Register'd
// EventFunc scheduled by id (AtID/AfterID), threading two integers and a
// float through the arena instead of capturing them in a closure, so the
// arena holds no pointer and the garbage collector never scans it.
//
// All durations and timestamps are in seconds of virtual time. The engine is
// not safe for concurrent use; simulations are single-goroutine by design so
// that results are deterministic.
//
// Time is a float64, and a simulation whose durations are all multiples of
// Quantum (2^-40 s, Quantize) computes its times exactly: a multiple n*2^-40
// below Horizon (2^13 s) has n < 2^53 and is a float64 exactly, the sum or
// difference of two such is another, and IEEE arithmetic returns an exact
// result whenever it is representable. Below the horizon, addition is then
// associative, and a state shifted in time by a multiple of the quantum
// evolves exactly as the unshifted one — which is what lets the pipeline skip
// whole periods of a run that has begun to repeat (Engine.Shift,
// Resource.Shift, AppendState). Durations that are not multiples of the
// quantum (a fault's slowdown factor, a degraded serving link) still work;
// their sums are merely rounded, as any float's are.
package sim

import (
	"context"
	"fmt"
	"math"
)

// Quantum is the grain of exact simulated time, 2^-40 s (about 0.9 ps).
const Quantum = 1.0 / (1 << 40)

// Horizon is the end of exact simulated time, 2^13 s (about 2.3 h): below
// it, multiples of Quantum add and subtract without rounding.
const Horizon Time = 1 << 13

// Quantize rounds a duration in seconds to the nearest multiple of Quantum.
// Scaling by a power of two is exact, so the only rounding is the one to an
// integer count of quanta; a duration at or above Horizon is already a
// multiple and passes unchanged.
func Quantize(d float64) float64 { return math.Round(d*(1<<40)) / (1 << 40) }

// Time is an instant in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration float64

// EventFunc is a pooled event callback. The two integers and the float are
// caller-chosen payload (typically a minibatch number, a stage index, and a
// duration or start time), carried through the event arena so that
// scheduling needs no per-event closure. Handlers are installed once with
// Register and scheduled by id (AtID/AfterID), which keeps the event arena
// free of per-event function pointers — the garbage collector never scans
// queue traffic.
type EventFunc func(a, b int32, x float64)

// Handle identifies a scheduled event for cancellation. The zero Handle is
// never valid. Handles are generation-checked: once the event has fired or
// been cancelled, the handle goes stale and Cancel on it reports false, even
// if the arena slot has been reused by a later event.
type Handle struct {
	slot int32
	gen  uint32
}

// slot states.
const (
	slotFree uint8 = iota
	slotQueued
	slotCancelled
)

// slot is one arena entry: the event's Register'd handler id ef and payload
// (its time is its ring entry's). It holds no pointer.
type slot struct {
	x     float64
	a, b  int32
	ef    int32
	gen   uint32
	state uint8
}

// entry is one ring entry with the ordering key (at, seq) inlined, so a push
// compares without touching the arena — the ring stays cache-resident even
// when the arena does not.
type entry struct {
	at  Time
	seq uint64
	id  int32
}

// Engine is a discrete-event simulator.
//
// The zero value is not usable; construct with New.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	maxStep uint64 // safety bound; 0 means unlimited

	slots []slot      // event arena; Handle.slot and ring entries index into it
	free  []int32     // free arena slots
	ring  []entry     // queued (or cancelled) events in firing order; len 0 or a power of two
	hd    int         // ring index of the earliest entry
	n     int         // entries in the ring
	dead  int         // cancelled events still occupying ring entries
	funcs []EventFunc // Register'd handlers, indexed by slot.ef
}

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired
// (cancelled events do not count): the number AppendState appends.
func (e *Engine) Pending() int { return e.n - e.dead }

// SetStepLimit bounds the total number of events the engine will fire;
// Run returns an error if the limit is hit. Zero disables the limit.
func (e *Engine) SetStepLimit(n uint64) { e.maxStep = n }

// Reset returns the engine to the zero-clock empty state while keeping the
// arena and ring capacity, so a warm engine re-simulates without re-growing
// any internal storage. Outstanding Handles go stale, and Register'd
// handlers are dropped (re-register after Reset). The step limit is
// retained.
func (e *Engine) Reset() {
	for i := range e.n {
		e.freeSlot(e.nth(i).id)
	}
	e.hd, e.n = 0, 0
	e.now, e.seq, e.fired = 0, 0, 0
	e.dead = 0
	e.funcs = e.funcs[:0]
}

// AppendState appends the pending events to dst in the order they will fire,
// relative to (Now, base), four words each: the time left until it fires, its
// handler and b payload, its a payload and its x payload — for the events of
// handler stamped, a less base and x less Now (their payload is a count and
// an instant, as the pipeline's transfers' are; stamped < 0 names none). Two
// states that append the same words fire the same events in the same order,
// at the same times relative to their own clocks.
func (e *Engine) AppendState(dst []uint64, stamped, base int32) []uint64 {
	for i := range e.n {
		if ent := e.nth(i); e.slots[ent.id].state == slotQueued {
			w0, w1, w2, w3 := e.words(ent, stamped, base)
			dst = append(dst, w0, w1, w2, w3)
		}
	}
	return dst
}

// words is one pending event's part of AppendState.
func (e *Engine) words(ent entry, stamped, base int32) (w0, w1, w2, w3 uint64) {
	s := &e.slots[ent.id]
	a, x := s.a, s.x
	if s.ef == stamped {
		a, x = a-base, x-float64(e.now)
	}
	return math.Float64bits(float64(ent.at - e.now)), uint64(uint32(s.ef))<<32 | uint64(uint32(s.b)),
		uint64(uint32(a)), math.Float64bits(x)
}

// Shift moves the clock and every pending event dt later, and adds da to the
// a payload and dt to the x payload of handler stamped's events (as in
// AppendState). Sequence numbers stay, so the events keep their firing order;
// Fired counts only what fired. It reports false and changes nothing if the
// latest shifted instant would reach Horizon, past which the shifted times
// would no longer be the ones a run simulated that far computes.
func (e *Engine) Shift(dt Time, stamped, da int32) bool {
	last := e.now
	if e.n > 0 {
		last = e.nth(e.n - 1).at
	}
	if last+dt >= Horizon {
		return false
	}
	e.now += dt
	for i := range e.n {
		ent := &e.ring[(e.hd+i)&(len(e.ring)-1)]
		ent.at += dt
		if s := &e.slots[ent.id]; s.ef == stamped && s.state == slotQueued {
			s.a += da
			s.x += float64(dt)
		}
	}
	return true
}

// alloc takes a slot from the free list, growing the arena when empty.
//
//hetlint:hotpath
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.slots = append(e.slots, slot{gen: 1}) // generation 0 is the zero Handle's
	return int32(len(e.slots) - 1)
}

// freeSlot recycles an arena slot, bumping its generation so stale handles
// cannot touch the next occupant.
//
//hetlint:hotpath
func (e *Engine) freeSlot(id int32) {
	s := &e.slots[id]
	s.state = slotFree
	s.gen++
	e.free = append(e.free, id)
}

// less orders ring entries by (time, sequence).
func less(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// nth returns the ring's i-th entry in firing order, counting from the head.
func (e *Engine) nth(i int) entry { return e.ring[(e.hd+i)&(len(e.ring)-1)] }

// push inserts an entry in order, moving every later entry one place toward
// the tail. A new event is usually due after most of those queued, so the
// scan starts at the tail. The new entry's sequence number is the largest
// yet, so it orders after every entry due no later: comparing times suffices,
// and a tie stays behind, in scheduling order.
//
//hetlint:hotpath
func (e *Engine) push(ent entry) {
	if e.n == len(e.ring) {
		e.grow()
	}
	mask := len(e.ring) - 1
	i := e.hd + e.n
	for ; i > e.hd && ent.at < e.ring[(i-1)&mask].at; i-- {
		e.ring[i&mask] = e.ring[(i-1)&mask]
	}
	e.ring[i&mask] = ent
	e.n++
}

// grow doubles the full ring (to at least four entries), copying it out
// unwrapped.
func (e *Engine) grow() {
	ring := make([]entry, max(4, 2*len(e.ring)))
	k := copy(ring, e.ring[e.hd:])
	copy(ring[k:], e.ring[:e.hd])
	e.ring, e.hd = ring, 0
}

// pop removes and returns the earliest entry.
//
//hetlint:hotpath
func (e *Engine) pop() entry {
	ent := e.ring[e.hd]
	e.hd = (e.hd + 1) & (len(e.ring) - 1)
	e.n--
	return ent
}

// Register installs a pooled event handler and returns its id for AtID and
// AfterID. Handlers are engine-lifetime (until Reset); scheduling against an
// unregistered id panics at fire time. Register once at setup — ids are
// dense from 0, in registration order.
func (e *Engine) Register(fn EventFunc) int32 {
	e.funcs = append(e.funcs, fn)
	return int32(len(e.funcs) - 1)
}

// schedule is the arena path behind AtID and AfterID.
func (e *Engine) schedule(t Time, ef, a, b int32, x float64) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	id := e.alloc()
	s := &e.slots[id]
	s.ef = ef
	s.a, s.b, s.x = a, b, x
	s.state = slotQueued
	e.push(entry{at: t, seq: e.seq, id: id})
	return Handle{slot: id, gen: s.gen}
}

// AtID schedules the Register'd handler id to fire as fn(a, b, x) at
// absolute time t without allocating: the payload rides in the event arena
// instead of a closure. It returns a cancellation handle. Scheduling in the
// past panics: it is always a bug in the simulation, never a recoverable
// condition.
func (e *Engine) AtID(t Time, id, a, b int32, x float64) Handle {
	return e.schedule(t, id, a, b, x)
}

// AfterID schedules the Register'd handler id to fire as fn(a, b, x) d
// seconds from now without allocating. Negative d panics.
func (e *Engine) AfterID(d Duration, id, a, b int32, x float64) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: event scheduled with negative delay %v", d))
	}
	return e.schedule(e.now+Time(d), id, a, b, x)
}

// Cancel revokes a scheduled event. It reports whether the handle named a
// still-pending event: a handle whose event already fired, was already
// cancelled, or whose arena slot has been recycled for a newer event is
// stale, and Cancel returns false without touching anything.
func (e *Engine) Cancel(h Handle) bool {
	if h.slot < 0 || int(h.slot) >= len(e.slots) {
		return false
	}
	s := &e.slots[h.slot]
	if s.state != slotQueued || s.gen != h.gen {
		return false
	}
	// The ring entry stays until popped (lazy deletion); bump the generation
	// now so the handle is immediately stale.
	s.state = slotCancelled
	s.gen++
	e.dead++
	return true
}

// prune discards cancelled events at the head of the ring so the head is the
// next live event; it reports whether one exists. With no cancellations
// outstanding it is a pair of integer tests — the common case never loads a
// slot.
//
//hetlint:hotpath
func (e *Engine) prune() bool {
	for e.n > 0 {
		if e.dead == 0 {
			return true
		}
		id := e.ring[e.hd].id
		if e.slots[id].state != slotCancelled {
			return true
		}
		e.pop()
		e.freeSlot(id)
		e.dead--
	}
	return false
}

// Step fires the next event, advancing the clock to its timestamp.
// It reports false when no events remain.
//
//hetlint:hotpath
func (e *Engine) Step() bool {
	if !e.prune() {
		return false
	}
	ent := e.pop()
	if ent.at < e.now {
		panic("sim: clock went backwards")
	}
	s := &e.slots[ent.id]
	e.now = ent.at
	e.fired++
	// Free before firing so the callback can schedule into the slot; the
	// callback state is captured first.
	ef, a, b, x := s.ef, s.a, s.b, s.x
	e.freeSlot(ent.id)
	e.funcs[ef](a, b, x)
	return true
}

// Run fires events until the queue drains. It returns an error if the
// configured step limit is exceeded, which usually indicates a livelock in
// the modeled system.
func (e *Engine) Run() error {
	return e.RunContext(context.Background())
}

// ctxCheckInterval is how many fired events elapse between context polls in
// RunMerged. Polling a Done channel costs a select per check; amortizing it
// over a batch of events keeps the hot loop tight while still bounding
// cancellation latency to a fraction of a millisecond of real time.
const ctxCheckInterval = 256

// pollDue reports whether the run loop must look at the step limit or the
// context after the event that has just fired.
func (e *Engine) pollDue(done <-chan struct{}) bool {
	return e.maxStep > 0 && e.fired > e.maxStep || done != nil && e.fired%ctxCheckInterval == 0
}

// poll stops a run past its step limit or with its context cancelled.
func (e *Engine) poll(ctx context.Context, done <-chan struct{}) error {
	if e.maxStep > 0 && e.fired > e.maxStep {
		return fmt.Errorf("sim: step limit %d exceeded at t=%v", e.maxStep, e.now)
	}
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
}

// RunContext fires events until the queue drains or ctx is cancelled,
// whichever comes first. On cancellation it stops between events (an event
// callback is never interrupted mid-flight) and returns ctx.Err(), so a
// caller can distinguish context.Canceled / context.DeadlineExceeded from
// simulation failures. The step-limit error behaves as in Run.
func (e *Engine) RunContext(ctx context.Context) error {
	return e.RunMerged(ctx, 0, nil, nil)
}

// RunMerged is RunContext with one caller-owned stream of n events merged
// into the run instead of queued; with n = 0 it is RunContext, and the whole
// run is one stepBefore loop. at(i) are the stream's non-decreasing
// timestamps, all known before the run starts, and fire(i) runs with the
// clock at at(i). The stream orders against the queue exactly as if event 0
// had been scheduled with AtID on entry and every fire(i) had ended by
// scheduling event i+1 — a sequence number is reserved at each of those
// points, and queued events ordering before (at(i), that number) fire first.
// Every other event therefore keeps the sequence number, and every tie the
// resolution, that the chained form gives it. Stream events count toward
// Fired, the step limit and the cancellation poll like any other, but never
// occupy the ring or an arena slot (pending does not see them). A stream
// that steps back in time panics, as scheduling in the past does.
//
//hetlint:hotpath
func (e *Engine) RunMerged(ctx context.Context, n int, at func(i int) Time, fire func(i int)) error {
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	i := 0
	var next entry // the stream head's ordering key
	if n > 0 {
		e.seq++
		next = entry{at: at(0), seq: e.seq}
	}
	for {
		if more, err := e.stepBefore(ctx, done, next, i == n); !more || err != nil {
			return err
		}
		if next.at < e.now {
			panic("sim: merged stream went backwards")
		}
		e.now = next.at
		e.fired++
		fire(i)
		if i++; i < n {
			e.seq++
			next = entry{at: at(i), seq: e.seq}
		}
		if e.pollDue(done) {
			if err := e.poll(ctx, done); err != nil {
				return err
			}
		}
	}
}

// stepBefore fires the queued events that order before head — every one
// left when all — and reports whether the run goes on: false when the queue
// drained or the run stopped with an error.
//
//hetlint:hotpath
func (e *Engine) stepBefore(ctx context.Context, done <-chan struct{}, head entry, all bool) (bool, error) {
	for all || e.prune() && less(e.ring[e.hd], head) {
		if !e.Step() {
			return false, nil
		}
		if e.pollDue(done) {
			if err := e.poll(ctx, done); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}
