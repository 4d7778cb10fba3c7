package sim

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
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
	fire := e.Register(func(a, _ int32, _ float64) { got = append(got, int(a)) })
	e.AtID(3, fire, 3, 0, 0)
	e.AtID(1, fire, 1, 0, 0)
	e.AtID(2, fire, 2, 0, 0)
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
	names := []string{"first", "second", "third"}
	var got []string
	fire := e.Register(func(a, _ int32, _ float64) { got = append(got, names[a]) })
	for i := range names {
		e.AtID(5, fire, int32(i), 0, 0)
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
	inner := e.Register(func(_, _ int32, _ float64) { trace = append(trace, e.Now()) })
	outer := e.Register(func(_, _ int32, _ float64) {
		trace = append(trace, e.Now())
		e.AfterID(2, inner, 0, 0, 0)
	})
	e.AtID(1, outer, 0, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 3 {
		t.Fatalf("trace = %v, want [1 3]", trace)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	nop := e.Register(func(_, _ int32, _ float64) {})
	late := e.Register(func(_, _ int32, _ float64) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.AtID(5, nop, 0, 0, 0)
	})
	e.AtID(10, late, 0, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := New()
	nop := e.Register(func(_, _ int32, _ float64) {})
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.AfterID(-1, nop, 0, 0, 0)
}

func TestEngineStepLimit(t *testing.T) {
	e := New()
	e.SetStepLimit(10)
	var loop int32
	loop = e.Register(func(_, _ int32, _ float64) { e.AfterID(1, loop, 0, 0, 0) })
	e.AfterID(1, loop, 0, 0, 0)
	if err := e.Run(); err == nil {
		t.Fatal("expected step-limit error on infinite event chain")
	}
}

// TestStepLimitBoundary pins the limit's edge: a run of exactly the limit's
// events completes, one event more fails at Fired() = limit+1, for a queued
// chain and for a merged stream alike. A limit of ctxCheckInterval under a
// cancellable context also puts the edge on a context poll, where the run
// loop checks the limit although it has not been passed.
func TestStepLimitBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		limit int
		ctx   context.Context
	}{{10, context.Background()}, {ctxCheckInterval, ctx}} {
		for _, n := range []int{tc.limit, tc.limit + 1} {
			queued := New()
			queued.SetStepLimit(uint64(tc.limit))
			left := n
			var chain int32
			chain = queued.Register(func(_, _ int32, _ float64) {
				if left--; left > 0 {
					queued.AfterID(1, chain, 0, 0, 0)
				}
			})
			queued.AfterID(1, chain, 0, 0, 0)
			merged := New()
			merged.SetStepLimit(uint64(tc.limit))
			for _, run := range []struct {
				name string
				e    *Engine
				err  error
			}{
				{"queued chain", queued, queued.RunContext(tc.ctx)},
				{"merged stream", merged, merged.RunMerged(tc.ctx, n, func(i int) Time { return Time(i) }, func(int) {})},
			} {
				limited := run.err != nil && strings.Contains(run.err.Error(), "step limit")
				if limited != (n > tc.limit) || run.err != nil && !limited {
					t.Errorf("limit %d, %d-event %s: err = %v", tc.limit, n, run.name, run.err)
				}
				if got := run.e.Fired(); got != uint64(n) {
					t.Errorf("limit %d, %d-event %s: Fired() = %d, want %d", tc.limit, n, run.name, got, n)
				}
			}
		}
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
		fire := e.Register(func(_, _ int32, _ float64) { fired = append(fired, e.Now()) })
		for _, r := range raw {
			e.AtID(Time(r), fire, 0, 0, 0)
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
		fire := e.Register(func(a, _ int32, _ float64) { order = append(order, int(a)) })
		for i := 0; i < 100; i++ {
			e.AtID(Time(rng.Intn(10)), fire, int32(i), 0, 0)
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
	e.AtID(1, e.Register(func(_, _ int32, _ float64) { fired++ }), 0, 0, 0)
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
	var tick int32
	count := 0
	tick = e2.Register(func(_, _ int32, _ float64) {
		count++
		if count == 10 {
			cancel2()
		}
		e2.AfterID(1, tick, 0, 0, 0)
	})
	e2.AfterID(1, tick, 0, 0, 0)
	if err := e2.RunContext(ctx2); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext mid-run = %v, want context.Canceled", err)
	}
	if count >= 10+2*ctxCheckInterval {
		t.Fatalf("engine fired %d events after cancellation", count)
	}

	// A background context behaves exactly like Run.
	e3 := New()
	done := false
	e3.AtID(5, e3.Register(func(_, _ int32, _ float64) { done = true }), 0, 0, 0)
	if err := e3.RunContext(context.Background()); err != nil || !done {
		t.Fatalf("RunContext(Background) = %v, done = %v", err, done)
	}
}
