package sim

import (
	"testing"
	"testing/quick"
)

// nop is a completion handler for jobs whose completion nobody watches.
func nop(_, _ int32, _ float64) {}

func TestResourceSerialExecution(t *testing.T) {
	e := New()
	var done []Time
	r := NewResource(e, func(_, _ int32, _ float64) { done = append(done, e.Now()) })
	r.Submit(2, 0, 0)
	r.Submit(3, 0, 0)
	r.Submit(1, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 5, 6}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := New()
	names := []string{"x", "y", "z"}
	var order []string
	r := NewResource(e, func(a, _ int32, _ float64) { order = append(order, names[a]) })
	for i := range names {
		r.Submit(1, int32(i), 0)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Fatalf("order = %v, want [x y z]", order)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := New()
	r := NewResource(e, nop)
	r.Submit(4, 0, 0)
	e.AtID(10, e.Register(nop), 0, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Utilization(); got != 0.4 {
		t.Fatalf("utilization = %v, want 0.4", got)
	}
	if got := r.BusyTime(); got != 4 {
		t.Fatalf("busy time = %v, want 4", got)
	}
}

func TestResourceBusyAndQueueLen(t *testing.T) {
	e := New()
	r := NewResource(e, nop)
	r.Submit(5, 0, 0)
	r.Submit(5, 1, 0)
	r.Submit(5, 2, 0)
	probe := e.Register(func(_, _ int32, _ float64) {
		if !r.Busy() {
			t.Error("resource should be busy at t=1")
		}
		if n := len(r.queue) - r.head; n != 2 {
			t.Errorf("queue len = %d, want 2", n)
		}
	})
	e.AtID(1, probe, 0, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Busy() {
		t.Error("resource should be idle after drain")
	}
}

func TestResourceZeroDurationJob(t *testing.T) {
	e := New()
	ran := false
	r := NewResource(e, func(_, _ int32, _ float64) { ran = true })
	r.Submit(0, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("zero-duration job never completed")
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced for zero-duration job: %v", e.Now())
	}
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	e := New()
	r := NewResource(e, nop)
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	r.Submit(-1, 0, 0)
}

// Property: total busy time equals the sum of job durations, and the final
// clock (when only this resource is active) equals that sum — FIFO servers
// conserve work.
func TestResourceWorkConservationProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		e := New()
		r := NewResource(e, nop)
		var sum Duration
		for _, d := range raw {
			dur := Duration(d) / 8
			sum += dur
			r.Submit(dur, 0, 0)
		}
		if err := e.Run(); err != nil {
			return false
		}
		return r.BusyTime() == sum && e.Now() == Time(sum)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: completions are in submission order regardless of durations.
func TestResourceFIFOProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		e := New()
		var order []int
		r := NewResource(e, func(a, _ int32, _ float64) { order = append(order, int(a)) })
		for i, d := range raw {
			r.Submit(Duration(d)/16, int32(i), 0)
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := range order {
			if order[i] != i {
				return false
			}
		}
		return len(order) == len(raw)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceReserve: a queue Reserved for n jobs and never holding more —
// here a closed loop of n+1 jobs, one in service and n queued once each
// completion has submitted the next — keeps
// its backing array for the whole run, through every compaction, and serves
// in submission order; Reserve on a busy queue keeps its waiting jobs.
func TestResourceReserve(t *testing.T) {
	for n := 1; n <= 6; n++ {
		e := New()
		var r *Resource
		next, served := int32(0), int32(0)
		r = NewResource(e, func(a, _ int32, _ float64) {
			if a != served {
				t.Fatalf("n=%d: job %d completed, want %d", n, a, served)
			}
			served++
			if next < 1000 {
				r.Submit(Duration(1+next%3), next, 0)
				next++
			}
		})
		r.Reserve(n)
		c := cap(r.queue)
		for ; next <= int32(n); next++ {
			r.Submit(Duration(1+next%3), next, 0)
		}
		base := &r.queue[:1][0]
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if served != 1000 || cap(r.queue) != c || &r.queue[:1][0] != base {
			t.Errorf("n=%d: served %d of 1000, capacity %d -> %d, moved %v", n, served, c, cap(r.queue), &r.queue[:1][0] != base)
		}
	}
	e := New()
	var order []int32
	r := NewResource(e, func(a, _ int32, _ float64) { order = append(order, a) })
	for a := int32(0); a < 3; a++ {
		r.Submit(1, a, 0)
	}
	r.Reserve(8)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("completions after Reserve on a busy queue: %v, want [0 1 2]", order)
	}
}
