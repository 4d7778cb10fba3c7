package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

// nop is a completion handler for jobs whose completion nobody watches.
func nop(_, _ int32, _ float64) {}

func TestResourceSerialExecution(t *testing.T) {
	e := New()
	r := NewResource(e)
	var done []Time
	id := r.Register(func(_, _ int32, _ float64) { done = append(done, e.Now()) })
	r.SubmitID(2, id, 0, 0)
	r.SubmitID(3, id, 0, 0)
	r.SubmitID(1, id, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 5, 6}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
	if r.Served() != 3 {
		t.Fatalf("served = %d, want 3", r.Served())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := New()
	r := NewResource(e)
	names := []string{"x", "y", "z"}
	var order []string
	id := r.Register(func(a, _ int32, _ float64) { order = append(order, names[a]) })
	for i := range names {
		r.SubmitID(1, id, int32(i), 0)
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
	r := NewResource(e)
	r.SubmitID(4, r.Register(nop), 0, 0)
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
	r := NewResource(e)
	id := r.Register(nop)
	r.SubmitID(5, id, 0, 0)
	r.SubmitID(5, id, 1, 0)
	r.SubmitID(5, id, 2, 0)
	probe := e.Register(func(_, _ int32, _ float64) {
		if !r.Busy() {
			t.Error("resource should be busy at t=1")
		}
		if r.QueueLen() != 2 {
			t.Errorf("queue len = %d, want 2", r.QueueLen())
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
	r := NewResource(e)
	ran := false
	r.SubmitID(0, r.Register(func(_, _ int32, _ float64) { ran = true }), 0, 0)
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
	r := NewResource(e)
	id := r.Register(nop)
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	r.SubmitID(-1, id, 0, 0)
}

// Property: total busy time equals the sum of job durations, and the final
// clock (when only this resource is active) equals that sum — FIFO servers
// conserve work.
func TestResourceWorkConservationProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		e := New()
		r := NewResource(e)
		id := r.Register(nop)
		var sum Duration
		for _, d := range raw {
			dur := Duration(d) / 8
			sum += dur
			r.SubmitID(dur, id, 0, 0)
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
		r := NewResource(e)
		var order []int
		id := r.Register(func(a, _ int32, _ float64) { order = append(order, int(a)) })
		for i, d := range raw {
			r.SubmitID(Duration(d)/16, id, int32(i), 0)
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

// TestResourceSaveRestore: a resource saved part-way through its jobs (one
// in service, some waiting, some already served, the ring's head advanced),
// then run to the end, restored together with the engine and run again,
// completes the same jobs at the same times and ends with the same
// accounting — also when more jobs than were waiting at the save arrived
// after it.
func TestResourceSaveRestore(t *testing.T) {
	e := New()
	r := NewResource(e)
	var log []Time
	id := r.Register(func(a, _ int32, _ float64) { log = append(log, Time(a)*1000+e.Now()) })
	for n := 1; n <= 20; n++ { // enough for the queue's compaction to have run
		r.SubmitID(Duration(n%4+1), id, int32(n), 0)
	}
	for r.Served() < 17 {
		e.Step()
	}
	var se Saved
	var sr SavedResource
	e.Save(&se)
	r.Save(&sr)
	at := len(log)
	finish := func() (tail []Time, busy Duration, served uint64) {
		for n := 21; n <= 30; n++ {
			r.SubmitID(1, id, int32(n), 0)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]Time(nil), log[at:]...), r.BusyTime(), r.Served()
	}
	tail1, busy1, served1 := finish()
	e.Restore(&se)
	r.Restore(&sr)
	log = log[:at]
	if r.QueueLen() != 2 || !r.Busy() || r.Served() != 17 {
		t.Fatalf("restored to %d waiting, busy %v, %d served; saved with 2 waiting, busy, 17 served", r.QueueLen(), r.Busy(), r.Served())
	}
	tail2, busy2, served2 := finish()
	if len(tail1) != 13 || !slices.Equal(tail1, tail2) || busy1 != busy2 || served1 != served2 {
		t.Fatalf("second run %v busy %v served %d, first %v busy %v served %d",
			tail2, busy2, served2, tail1, busy1, served1)
	}
}
