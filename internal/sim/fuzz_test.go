package sim

import (
	"reflect"
	"slices"
	"sort"
	"testing"
)

// oracleEvent mirrors one scheduled event in the model queue: absolute time,
// scheduling order, and lifecycle state.
type oracleEvent struct {
	at    Time
	order int
	state uint8 // 0 pending, 1 fired, 2 cancelled
}

// oracle is a sort-based reference implementation of the event queue: a flat
// list scanned for the (time, order) minimum on every step. Quadratic and
// boring on purpose.
type oracle struct {
	events []oracleEvent
	now    Time
	order  []int // firing order, by event index
}

func (o *oracle) add(at Time) int {
	o.events = append(o.events, oracleEvent{at: at, order: len(o.events)})
	return len(o.events) - 1
}

// step fires the pending event with the least (time, order) key, if any.
func (o *oracle) step() bool {
	best := -1
	for i := range o.events {
		ev := &o.events[i]
		if ev.state != 0 {
			continue
		}
		if best < 0 || ev.at < o.events[best].at ||
			(ev.at == o.events[best].at && ev.order < o.events[best].order) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	o.events[best].state = 1
	o.now = o.events[best].at
	o.order = append(o.order, best)
	return true
}

// cancel marks a pending event cancelled; it reports whether it was pending
// (the value Engine.Cancel must return for the matching handle).
func (o *oracle) cancel(i int) bool {
	if o.events[i].state != 0 {
		return false
	}
	o.events[i].state = 2
	return true
}

func (o *oracle) pending() int {
	n := 0
	for i := range o.events {
		if o.events[i].state == 0 {
			n++
		}
	}
	return n
}

// FuzzEventQueue drives random interleavings of schedule (relative and
// absolute), step, and cancel — including deliberately stale cancels — against
// the sort-based oracle, asserting the identical (time, seq) total order, that
// cancelled events never fire, and that generation-checked handles go stale
// exactly when the oracle says the event is no longer pending (so a recycled
// arena slot can never be cancelled through an old handle).
//
// It is also the wall of Save and Restore. The script is cut at a fuzzed
// operation (an odd trailing byte picks it, otherwise the middle): the engine
// is saved there, the rest of the script runs and the queue drains — the
// oracle-checked pass — and then the engine is restored and the rest runs
// again, oracle-free. The second pass must repeat the first: every Step and
// Cancel outcome (cancels through handles issued before the save, stale or
// live at the time, included), Pending after every operation, every firing,
// Now and Fired at the end, and an end state equal field for field — free
// list order and slot generations too, so arena growth and recycling after
// the save cannot leak through the restore.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 2, 3, 0})
	f.Add([]byte{1, 5, 1, 5, 1, 5, 3, 1, 4, 0, 2, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 3, 0, 2, 3, 1, 0, 7, 2, 4, 2})
	f.Add([]byte{0, 3, 1, 3, 0, 1, 2, 0, 3, 0, 0, 9, 1, 2, 0, 4, 2, 0, 4, 1, 3, 2, 2, 0, 2}) // saved with events pending, then grows
	f.Add([]byte{0, 5, 0, 9, 3, 0, 2, 0, 2, 0, 3})                                           // saved with a cancelled event still in the heap
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New()
		var got []int
		fireID := e.Register(func(a, _ int32, _ float64) { got = append(got, int(a)) })
		var handles []Handle // handles[i] corresponds to o.events[i]
		// outcomes logs what the script observes from the save point on: each
		// Step and Cancel result and Pending after every operation.
		var outcomes []int

		// apply runs operation i of the script, against the oracle when there
		// is one. Event ids are oracle indices, which is also len(handles).
		apply := func(i int, o *oracle) {
			op, arg := data[i]%5, data[i+1]
			switch op {
			case 0: // schedule, relative time
				id := len(handles)
				if o != nil {
					o.add(e.Now() + Time(arg))
				}
				handles = append(handles, e.AfterID(Duration(arg), fireID, int32(id), 0, 0))
			case 1: // schedule, absolute time
				at := e.Now() + Time(arg)
				id := len(handles)
				if o != nil {
					o.add(at)
				}
				handles = append(handles, e.AtID(at, fireID, int32(id), 0, 0))
			case 2: // step
				gotStep := e.Step()
				if o != nil {
					if want := o.step(); gotStep != want {
						t.Fatalf("op %d: Step() = %v, oracle %v", i, gotStep, want)
					}
				}
				outcomes = append(outcomes, btoi(gotStep))
			case 3, 4: // cancel (op 4 tends to pick already-dead handles)
				if len(handles) == 0 {
					return
				}
				id := int(arg) % len(handles)
				if op == 4 {
					id = id / 2 // bias toward older, likely-consumed handles
				}
				gotC := e.Cancel(handles[id])
				if o != nil {
					if want := o.cancel(id); gotC != want {
						t.Fatalf("op %d: Cancel(ev %d) = %v, oracle %v", i, id, gotC, want)
					}
				}
				// A consumed handle must stay permanently stale.
				if e.Cancel(handles[id]) {
					t.Fatalf("op %d: second Cancel(ev %d) succeeded", i, id)
				}
				outcomes = append(outcomes, btoi(gotC))
			}
			if o != nil && e.Pending() != o.pending() {
				t.Fatalf("op %d: Pending() = %d, oracle %d", i, e.Pending(), o.pending())
			}
			outcomes = append(outcomes, e.Pending())
		}

		ops := len(data) / 2
		saveAt := ops / 2
		if len(data)%2 == 1 {
			saveAt = int(data[len(data)-1]) % (ops + 1)
		}
		var o oracle
		for i := 0; i < saveAt; i++ {
			apply(2*i, &o)
		}
		var saved Saved
		e.Save(&saved)
		gotAtSave, handlesAtSave := len(got), len(handles)
		outcomes = outcomes[:0]
		for i := saveAt; i < ops; i++ {
			apply(2*i, &o)
		}

		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for o.step() {
		}
		if len(got) != len(o.order) {
			t.Fatalf("fired %d events, oracle fired %d", len(got), len(o.order))
		}
		for i := range got {
			if got[i] != o.order[i] {
				t.Fatalf("firing order diverged at %d: got ev %d, oracle ev %d", i, got[i], o.order[i])
			}
		}
		if e.Now() != o.now {
			t.Fatalf("final clock = %v, oracle %v", e.Now(), o.now)
		}
		if e.Pending() != 0 {
			t.Fatalf("Pending() = %d after drain", e.Pending())
		}
		// Every handle is stale after the drain: nothing is cancellable.
		for i, h := range handles {
			if e.Cancel(h) {
				t.Fatalf("Cancel(ev %d) succeeded after drain", i)
			}
		}
		// The firing order must match the sort-based total order over the
		// never-cancelled events.
		var want []int
		for i := range o.events {
			if o.events[i].state == 1 {
				want = append(want, i)
			}
		}
		sort.Slice(want, func(a, b int) bool {
			ea, eb := o.events[want[a]], o.events[want[b]]
			if ea.at != eb.at {
				return ea.at < eb.at
			}
			return ea.order < eb.order
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("total order diverged at %d: got ev %d, want ev %d", i, got[i], want[i])
			}
		}

		// Back to the save point, and the rest of the script again.
		firstGot, firstOutcomes := slices.Clone(got), slices.Clone(outcomes)
		firstNow, firstFired := e.Now(), e.Fired()
		var firstEnd, secondEnd Saved
		e.Save(&firstEnd)
		e.Restore(&saved)
		got, handles, outcomes = got[:gotAtSave], handles[:handlesAtSave], outcomes[:0]
		for i := saveAt; i < ops; i++ {
			apply(2*i, nil)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Save(&secondEnd)
		if !slices.Equal(got, firstGot) {
			t.Fatalf("restored at op %d: fired %v, the first pass fired %v", saveAt, got, firstGot)
		}
		if !slices.Equal(outcomes, firstOutcomes) {
			t.Fatalf("restored at op %d: Step/Cancel/Pending outcomes %v, the first pass saw %v", saveAt, outcomes, firstOutcomes)
		}
		if e.Now() != firstNow || e.Fired() != firstFired {
			t.Fatalf("restored at op %d: ended at t=%v after %d events, the first pass at t=%v after %d", saveAt, e.Now(), e.Fired(), firstNow, firstFired)
		}
		if !reflect.DeepEqual(&firstEnd, &secondEnd) {
			t.Fatalf("restored at op %d: end state %+v, the first pass ended in %+v", saveAt, secondEnd, firstEnd)
		}
	})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
