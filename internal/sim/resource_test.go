package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestResourceSerialExecution(t *testing.T) {
	e := New()
	r := NewResource(e, "gpu")
	var done []Time
	r.Submit(2, "a", func() { done = append(done, e.Now()) })
	r.Submit(3, "b", func() { done = append(done, e.Now()) })
	r.Submit(1, "c", func() { done = append(done, e.Now()) })
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
	r := NewResource(e, "link")
	var order []string
	for _, n := range []string{"x", "y", "z"} {
		n := n
		r.Submit(1, n, func() { order = append(order, n) })
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
	r := NewResource(e, "gpu")
	r.Submit(4, "work", nil)
	e.At(10, "end", func() {})
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
	r := NewResource(e, "gpu")
	r.Submit(5, "a", nil)
	r.Submit(5, "b", nil)
	r.Submit(5, "c", nil)
	e.At(1, "probe", func() {
		if !r.Busy() {
			t.Error("resource should be busy at t=1")
		}
		if r.QueueLen() != 2 {
			t.Errorf("queue len = %d, want 2", r.QueueLen())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Busy() {
		t.Error("resource should be idle after drain")
	}
	// The first job starts immediately, so at most two jobs ever wait.
	if r.MaxQueueLen() != 2 {
		t.Errorf("max queue len = %d, want 2", r.MaxQueueLen())
	}
}

func TestResourceZeroDurationJob(t *testing.T) {
	e := New()
	r := NewResource(e, "gpu")
	ran := false
	r.Submit(0, "instant", func() { ran = true })
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
	r := NewResource(e, "gpu")
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	r.Submit(-1, "bad", nil)
}

// Property: total busy time equals the sum of job durations, and the final
// clock (when only this resource is active) equals that sum — FIFO servers
// conserve work.
func TestResourceWorkConservationProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		e := New()
		r := NewResource(e, "gpu")
		var sum Duration
		for _, d := range raw {
			dur := Duration(d) / 8
			sum += dur
			r.Submit(dur, "job", nil)
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
		r := NewResource(e, "gpu")
		var order []int
		for i, d := range raw {
			i := i
			r.Submit(Duration(d)/16, "job", func() { order = append(order, i) })
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

// TestResourceSaveRestore: a resource saved part-way through a mix of Submit
// and SubmitID jobs (one in service, some waiting, some already served, the
// rings' heads advanced), then run to the end, restored together with the
// engine and run again, completes the same jobs at the same times and ends
// with the same accounting — also when more jobs than were waiting at the
// save arrived after it.
func TestResourceSaveRestore(t *testing.T) {
	e := New()
	r := NewResource(e, "gpu")
	var log []Time
	id := r.Register(func(a, _ int32, _ float64) { log = append(log, Time(a)*1000+e.Now()) })
	closure := func(n int) func() { return func() { log = append(log, Time(n)*1000+e.Now()) } }
	for n := 1; n <= 20; n++ { // enough for the queue's compaction to have run
		if n%3 == 0 {
			r.Submit(Duration(n%4+1), "c", closure(n))
		} else {
			r.SubmitID(Duration(n%4+1), id, int32(n), 0)
		}
	}
	for r.Served() < 17 {
		e.Step()
	}
	var se Saved
	var sr SavedResource
	e.Save(&se)
	r.Save(&sr)
	at := len(log)
	finish := func() (tail []Time, busy Duration, served uint64, maxQueue int) {
		for n := 21; n <= 30; n++ {
			r.Submit(1, "late", closure(n))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]Time(nil), log[at:]...), r.BusyTime(), r.Served(), r.MaxQueueLen()
	}
	tail1, busy1, served1, max1 := finish()
	e.Restore(&se)
	r.Restore(&sr)
	log = log[:at]
	if r.QueueLen() != 2 || !r.Busy() || r.Served() != 17 {
		t.Fatalf("restored to %d waiting, busy %v, %d served; saved with 2 waiting, busy, 17 served", r.QueueLen(), r.Busy(), r.Served())
	}
	tail2, busy2, served2, max2 := finish()
	if len(tail1) != 13 || !slices.Equal(tail1, tail2) || busy1 != busy2 || served1 != served2 || max1 != max2 {
		t.Fatalf("second run %v busy %v served %d maxQueue %d, first %v busy %v served %d maxQueue %d",
			tail2, busy2, served2, max2, tail1, busy1, served1, max1)
	}
}
