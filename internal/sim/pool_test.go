package sim

import (
	"context"
	"reflect"
	"testing"
)

// TestArenaPointerFree: the event arena, the event ring and the job ring hold no
// pointer, so the garbage collector never scans queue traffic.
func TestArenaPointerFree(t *testing.T) {
	for _, v := range []any{slot{}, entry{}, job{}} {
		typ := reflect.TypeOf(v)
		for i := range typ.NumField() {
			// Every kind up to Complex128 is a scalar; Array, Chan, Func,
			// Interface, Map, Pointer, Slice, String and Struct come after.
			if f := typ.Field(i); f.Type.Kind() > reflect.Complex128 {
				t.Errorf("%s.%s is a %s", typ.Name(), f.Name, f.Type.Kind())
			}
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := New()
	var got []int
	fire := e.Register(func(a, _ int32, _ float64) { got = append(got, int(a)) })
	h1 := e.AtID(1, fire, 1, 0, 0)
	h2 := e.AtID(2, fire, 2, 0, 0)
	h3 := e.AtID(3, fire, 3, 0, 0)
	if !e.Cancel(h2) {
		t.Fatal("Cancel(pending) = false")
	}
	if e.Cancel(h2) {
		t.Fatal("second Cancel succeeded")
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("fired %v, want [1 3]", got)
	}
	if e.Cancel(h1) || e.Cancel(h3) {
		t.Fatal("Cancel succeeded on already-fired handle")
	}
	if e.Now() != 3 || e.Fired() != 2 {
		t.Fatalf("now = %v fired = %d, want 3, 2", e.Now(), e.Fired())
	}
}

// cancelRun is one engine with events 0..n-1 scheduled at times 1..n, and the
// set of events that are still to fire as the test's own ledger.
type cancelRun struct {
	t      *testing.T
	e      *Engine
	fire   int32
	h      []Handle // h[i] is event i's
	live   map[int32]bool
	got    []int32
	onFire func(a int32) // runs after event a is logged
}

func newCancelRun(t *testing.T, n int) *cancelRun {
	r := &cancelRun{t: t, e: New(), live: map[int32]bool{}}
	r.fire = r.e.Register(func(a, _ int32, _ float64) {
		delete(r.live, a)
		r.got = append(r.got, a)
		r.check("firing")
		if r.onFire != nil {
			r.onFire(a)
		}
	})
	for range n {
		r.schedule(Time(len(r.h) + 1))
	}
	return r
}

func (r *cancelRun) schedule(at Time) {
	a := int32(len(r.h))
	r.h = append(r.h, r.e.AtID(at, r.fire, a, 0, 0))
	r.live[a] = true
	r.check("scheduling")
}

// check is the engine's invariant: the ring holds exactly the events still
// to fire, so Pending counts them and AppendState lists four words for each.
func (r *cancelRun) check(after string) {
	r.t.Helper()
	if p := r.e.Pending(); p != len(r.live) {
		r.t.Fatalf("after %s: Pending() = %d, %d events left to fire", after, p, len(r.live))
	}
	if w := len(r.e.AppendState(nil, -1, 0)); w != 4*len(r.live) {
		r.t.Fatalf("after %s: AppendState appended %d words, want %d", after, w, 4*len(r.live))
	}
}

func (r *cancelRun) cancel(h Handle, want bool) {
	r.t.Helper()
	if got := r.e.Cancel(h); got != want {
		r.t.Fatalf("Cancel(%+v) = %v, want %v", h, got, want)
	}
	for a, ha := range r.h {
		if ha == h {
			delete(r.live, int32(a))
		}
	}
	r.check("cancel")
}

// TestCancelRemovesItsEvent holds Cancel to its contract — true only for a
// pending event, and a cancelled event never fires — and the engine to its
// invariant after every operation, wherever in the ring the cancelled entry
// sits and wherever the cancel is called from.
func TestCancelRemovesItsEvent(t *testing.T) {
	for _, tc := range []struct {
		name string
		do   func(r *cancelRun)
		want []int32 // events fired, in order
	}{
		{"head", func(r *cancelRun) { r.cancel(r.h[0], true) }, []int32{1, 2, 3, 4}},
		{"middle", func(r *cancelRun) { r.cancel(r.h[2], true) }, []int32{0, 1, 3, 4}},
		{"tail", func(r *cancelRun) { r.cancel(r.h[4], true) }, []int32{0, 1, 2, 3}},
		{"every event, tail first", func(r *cancelRun) {
			for i := 4; i >= 0; i-- {
				r.cancel(r.h[i], true)
			}
		}, nil},
		{"twice", func(r *cancelRun) {
			r.cancel(r.h[1], true)
			r.cancel(r.h[1], false)
		}, []int32{0, 2, 3, 4}},
		{"after firing", func(r *cancelRun) {
			r.e.Step()
			r.cancel(r.h[0], false)
		}, []int32{0, 1, 2, 3, 4}},
		{"zero handle", func(r *cancelRun) { r.cancel(Handle{}, false) }, []int32{0, 1, 2, 3, 4}},
		{"stale handle to a recycled slot", func(r *cancelRun) {
			r.e.Step()
			r.schedule(9) // event 5 takes event 0's slot
			r.cancel(r.h[0], false)
		}, []int32{0, 1, 2, 3, 4, 5}},
		{"across the ring's wrap", func(r *cancelRun) {
			// Five entries in an eight-entry ring; three fire and five more
			// wrap past its end, so the entries behind event 4 cross it.
			r.e.Step()
			r.e.Step()
			r.e.Step()
			for i := range 5 {
				r.schedule(Time(6 + i))
			}
			r.cancel(r.h[4], true)
		}, []int32{0, 1, 2, 3, 5, 6, 7, 8, 9}},
		{"from a handler", func(r *cancelRun) {
			r.onFire = func(a int32) {
				if a == 1 {
					r.cancel(r.h[1], false) // its own event, already fired
					r.cancel(r.h[3], true)
				}
			}
		}, []int32{0, 1, 2, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCancelRun(t, 5)
			tc.do(r)
			if err := r.e.Run(); err != nil {
				t.Fatal(err)
			}
			r.check("the run")
			if !reflect.DeepEqual(r.got, tc.want) {
				t.Fatalf("fired %v, want %v", r.got, tc.want)
			}
			for i, h := range r.h {
				if r.e.Cancel(h) {
					t.Fatalf("Cancel(event %d) succeeded after the run", i)
				}
			}
		})
	}
}

// TestCancelDuringRunMerged: stream events cancel queued ones between queue
// firings, and the queue they leave holds exactly what fires after them.
func TestCancelDuringRunMerged(t *testing.T) {
	r := newCancelRun(t, 5)
	var streamed []int
	at := []Time{1.5, 3.5}
	err := r.e.RunMerged(context.Background(), len(at), func(i int) Time { return at[i] }, func(i int) {
		streamed = append(streamed, len(r.got))
		r.check("a stream event")
		switch i {
		case 0:
			r.cancel(r.h[0], false) // fired at 1
			r.cancel(r.h[2], true)
		case 1:
			r.cancel(r.h[4], true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r.check("the run")
	if want := []int32{0, 1, 3}; !reflect.DeepEqual(r.got, want) {
		t.Fatalf("fired %v, want %v", r.got, want)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(streamed, want) {
		t.Fatalf("stream events fired after %v queue events, want %v", streamed, want)
	}
}

// The zero Handle names no event, not even the first one scheduled into a
// fresh arena's slot 0.
func TestZeroHandleNeverValid(t *testing.T) {
	e := New()
	fired := 0
	fire := e.Register(func(_, _ int32, _ float64) { fired++ })
	e.AtID(1, fire, 0, 0, 0)
	if e.Cancel(Handle{}) {
		t.Fatal("Cancel(Handle{}) cancelled the first event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// A handle must go stale when its arena slot is recycled: cancelling through
// the old handle must not touch the new occupant.
func TestEngineCancelStaleGeneration(t *testing.T) {
	e := New()
	fired := 0
	fire := e.Register(func(_, _ int32, _ float64) { fired++ })
	h := e.AtID(1, fire, 0, 0, 0)
	if !e.Step() {
		t.Fatal("Step = false")
	}
	// The old slot is free now; the next schedule reuses it.
	h2 := e.AtID(2, fire, 0, 0, 0)
	if h2.slot != h.slot {
		t.Fatalf("slot not recycled: old %d, new %d", h.slot, h2.slot)
	}
	if e.Cancel(h) {
		t.Fatal("stale handle cancelled the slot's new occupant")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// Reset must restore a warm engine to a state indistinguishable from a fresh
// one: same firing order, same clock, and all old handles stale.
func TestEngineReset(t *testing.T) {
	run := func(e *Engine) []int {
		var got []int
		// Registered fresh each run: Reset drops handler registrations.
		fire := e.Register(func(a, _ int32, _ float64) { got = append(got, int(a)) })
		e.AtID(3, fire, 3, 0, 0)
		e.AtID(1, fire, 1, 0, 0)
		h := e.AtID(2, fire, 2, 0, 0)
		e.Cancel(h)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	e := New()
	first := run(e)
	// Leave events pending, then reset mid-flight.
	leftover := e.Register(func(_, _ int32, _ float64) { t.Error("leftover event fired after Reset") })
	h := e.AtID(e.Now()+1, leftover, 0, 0, 0)
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d fired=%d", e.Now(), e.Pending(), e.Fired())
	}
	if e.Cancel(h) {
		t.Fatal("handle survived Reset")
	}
	second := run(e)
	if len(first) != len(second) {
		t.Fatalf("warm run fired %d events, cold %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("warm run diverged at %d: %d vs %d", i, second[i], first[i])
		}
	}
	if e.Now() != 3 {
		t.Fatalf("warm run clock = %v, want 3", e.Now())
	}
}

// The pooled scheduling path must not allocate once the arena has grown to
// the simulation's peak pending count, and the pooled Resource path must not
// allocate per job.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := New()
	fire := e.Register(func(_, _ int32, _ float64) {})
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.AfterID(Duration(i%7), fire, int32(i), 0, 0)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state engine allocations = %v per run, want 0", allocs)
	}

	count := 0
	var r *Resource
	r = NewResource(e, func(a, _ int32, _ float64) {
		count++
		if a > 0 {
			r.Submit(1, a-1, 0)
		}
	})
	allocs = testing.AllocsPerRun(100, func() {
		r.Submit(1, 16, 0)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state resource allocations = %v per run, want 0", allocs)
	}
	if count == 0 {
		t.Fatal("resource jobs never completed")
	}
}

// Submit must deliver the job's hold duration to the resource's completion
// handler and keep FIFO accounting.
func TestResourceSubmit(t *testing.T) {
	e := New()
	type rec struct {
		a   int32
		x   float64
		end Time
	}
	var got []rec
	r := NewResource(e, func(a, _ int32, x float64) { got = append(got, rec{a: a, x: x, end: e.Now()}) })
	r.Submit(2, 0, 0)
	r.Submit(3, 1, 0)
	r.Submit(1, 2, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []rec{{0, 2, 2}, {1, 3, 5}, {2, 1, 6}}
	if len(got) != len(want) {
		t.Fatalf("completions = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if r.BusyTime() != 6 {
		t.Fatalf("busy=%v, want 6", r.BusyTime())
	}
	if r.Utilization() != 1 {
		t.Fatalf("utilization = %v, want 1", r.Utilization())
	}
}
