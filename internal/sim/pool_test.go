package sim

import (
	"reflect"
	"testing"
)

// TestArenaPointerFree: the event arena, the heap and the job ring hold no
// pointer, so the garbage collector never scans queue traffic.
func TestArenaPointerFree(t *testing.T) {
	for _, v := range []any{slot{}, heapEnt{}, job{}} {
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

	r := NewResource(e)
	count := 0
	var id int32
	id = r.Register(func(a, _ int32, _ float64) {
		count++
		if a > 0 {
			r.SubmitID(1, id, a-1, 0)
		}
	})
	allocs = testing.AllocsPerRun(100, func() {
		r.SubmitID(1, id, 16, 0)
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

// SubmitID must deliver the job's hold duration to the registered completion
// handler and keep FIFO accounting, including across two handlers on one
// resource.
func TestResourceSubmitID(t *testing.T) {
	e := New()
	r := NewResource(e)
	type rec struct {
		a   int32
		x   float64
		end Time
	}
	var got []rec
	id := r.Register(func(a, _ int32, x float64) { got = append(got, rec{a: a, x: x, end: e.Now()}) })
	r.SubmitID(2, id, 0, 0)
	r.SubmitID(3, id, 1, 0)
	r.SubmitID(1, r.Register(func(a, _ int32, _ float64) { got = append(got, rec{a: a, x: -1, end: e.Now()}) }), 2, 0)
	if r.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", r.QueueLen())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []rec{{0, 2, 2}, {1, 3, 5}, {2, -1, 6}}
	if len(got) != len(want) {
		t.Fatalf("completions = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if r.Served() != 3 || r.BusyTime() != 6 {
		t.Fatalf("served=%d busy=%v, want 3, 6", r.Served(), r.BusyTime())
	}
	if r.Utilization() != 1 {
		t.Fatalf("utilization = %v, want 1", r.Utilization())
	}
}
