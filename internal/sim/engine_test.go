package sim

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := New()
	if err := e.Run(); err != nil {
		t.Fatalf("Run on empty engine: %v", err)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", e.Now())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(3, "c", func() { got = append(got, 3) })
	e.At(1, "a", func() { got = append(got, 1) })
	e.At(2, "b", func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("final time = %v, want 3", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var got []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		e.At(5, name, func() { got = append(got, name) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != "first" || got[1] != "second" || got[2] != "third" {
		t.Fatalf("simultaneous events fired out of scheduling order: %v", got)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var trace []Time
	e.At(1, "outer", func() {
		trace = append(trace, e.Now())
		e.After(2, "inner", func() {
			trace = append(trace, e.Now())
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 3 {
		t.Fatalf("trace = %v, want [1 3]", trace)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(10, "late", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, "past", func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, "neg", func() {})
}

func TestEngineStepLimit(t *testing.T) {
	e := New()
	e.SetStepLimit(10)
	var loop func()
	loop = func() { e.After(1, "loop", loop) }
	e.After(1, "loop", loop)
	if err := e.Run(); err == nil {
		t.Fatal("expected step-limit error on infinite event chain")
	}
}

// Property: for any multiset of event times, the engine fires them in
// nondecreasing time order and ends with the clock at the max.
func TestEngineMonotonicClockProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := New()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.At(at, "ev", func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		max := Time(0)
		for _, r := range raw {
			if Time(r) > max {
				max = Time(r)
			}
		}
		return e.Now() == max && len(fired) == len(raw)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: identical schedules produce identical firing orders (determinism),
// even when many events collide at the same instant.
func TestEngineDeterminismProperty(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			e.At(Time(rng.Intn(10)), "ev", func() { order = append(order, i) })
		}
		if err := e.Run(); err != nil {
			panic(err)
		}
		return order
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEngineRunContextCancellation(t *testing.T) {
	// Pre-cancelled: no event fires at all.
	e := New()
	fired := 0
	e.At(1, "x", func() { fired++ })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext(cancelled) = %v, want context.Canceled", err)
	}
	if fired != 0 {
		t.Fatalf("pre-cancelled run fired %d events", fired)
	}

	// Cancelled mid-run: an event callback cancels the context; the engine
	// stops within one check interval even though the queue never drains.
	e2 := New()
	ctx2, cancel2 := context.WithCancel(context.Background())
	var reschedule func()
	count := 0
	reschedule = func() {
		count++
		if count == 10 {
			cancel2()
		}
		e2.After(1, "tick", reschedule)
	}
	e2.After(1, "tick", reschedule)
	if err := e2.RunContext(ctx2); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext mid-run = %v, want context.Canceled", err)
	}
	if count >= 10+2*ctxCheckInterval {
		t.Fatalf("engine fired %d events after cancellation", count)
	}

	// A background context behaves exactly like Run.
	e3 := New()
	done := false
	e3.At(5, "y", func() { done = true })
	if err := e3.RunContext(context.Background()); err != nil || !done {
		t.Fatalf("RunContext(Background) = %v, done = %v", err, done)
	}
}
