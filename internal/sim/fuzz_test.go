package sim

import (
	"math"
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

// inState lists the events in state (0 pending, 1 fired) in firing order:
// by (time, order).
func (o *oracle) inState(state uint8) []int {
	var ids []int
	for i := range o.events {
		if o.events[i].state == state {
			ids = append(ids, i)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		ea, eb := o.events[ids[a]], o.events[ids[b]]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		return ea.order < eb.order
	})
	return ids
}

// FuzzEventQueue drives random interleavings of schedule (relative and
// absolute), step, and cancel — including deliberately stale cancels — against
// the sort-based oracle, asserting the identical (time, seq) total order, that
// cancelled events never fire, that Pending counts and AppendState lists
// exactly the pending events in firing order after every operation (the ring
// holds nothing else), and that generation-checked
// handles go stale exactly when the oracle says the event is no longer pending
// (so a recycled arena slot can never be cancelled through an old handle).
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 2, 3, 0})
	f.Add([]byte{1, 5, 1, 5, 1, 5, 3, 1, 4, 0, 2, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 3, 0, 2, 3, 1, 0, 7, 2, 4, 2})
	f.Add([]byte{0, 3, 1, 3, 0, 1, 2, 0, 3, 0, 0, 9, 1, 2, 0, 4, 2, 0, 4, 1, 3, 2, 2, 0, 2}) // events pending while the arena grows
	f.Add([]byte{0, 5, 0, 9, 3, 0, 2, 0, 2, 0, 3})                                           // a cancelled event behind a pending one
	// Six events, four fired, six more: the eight-entry ring wraps, and
	// inserts shift entries across its end.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 2, 0, 2, 0, 2, 0, 2, 0,
		0, 3, 0, 1, 0, 7, 0, 2, 0, 9, 0, 5, 2, 0, 2, 0, 2, 0})
	// As above and one more: the wrapped ring grows with its head at 4.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 2, 0, 2, 0, 2, 0, 2, 0,
		0, 3, 0, 1, 0, 7, 0, 2, 0, 9, 0, 5, 0, 4, 1, 0, 2, 0, 2, 0})
	// Eight events, seven fired, two more wrap to the ring's start; the
	// head, at its last index, is cancelled and the entries behind it move
	// back across the wrap.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8,
		2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 0, 5, 0, 6, 3, 7, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New()
		var o oracle
		var got []int
		fireID := e.Register(func(a, _ int32, _ float64) { got = append(got, int(a)) })
		var handles []Handle // handles[i] corresponds to o.events[i]

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%5, data[i+1]
			switch op {
			case 0: // schedule, relative time
				id := o.add(e.Now() + Time(arg))
				handles = append(handles, e.AfterID(Duration(arg), fireID, int32(id), 0, 0))
			case 1: // schedule, absolute time
				at := e.Now() + Time(arg)
				id := o.add(at)
				handles = append(handles, e.AtID(at, fireID, int32(id), 0, 0))
			case 2: // step
				want := o.step()
				if gotStep := e.Step(); gotStep != want {
					t.Fatalf("op %d: Step() = %v, oracle %v", i, gotStep, want)
				}
			case 3, 4: // cancel (op 4 tends to pick already-dead handles)
				if len(handles) == 0 {
					continue
				}
				id := int(arg) % len(handles)
				if op == 4 {
					id = id / 2 // bias toward older, likely-consumed handles
				}
				want := o.cancel(id)
				if gotC := e.Cancel(handles[id]); gotC != want {
					t.Fatalf("op %d: Cancel(ev %d) = %v, oracle %v", i, id, gotC, want)
				}
				// A consumed handle must stay permanently stale.
				if e.Cancel(handles[id]) {
					t.Fatalf("op %d: second Cancel(ev %d) succeeded", i, id)
				}
			}
			want := o.inState(0)
			if e.Pending() != len(want) {
				t.Fatalf("op %d: Pending() = %d, oracle %d", i, e.Pending(), len(want))
			}
			state := e.AppendState(nil, -1, 0)
			if len(state) != 4*len(want) {
				t.Fatalf("op %d: AppendState lists %d events, oracle %d pending", i, len(state)/4, len(want))
			}
			for k, id := range want {
				if got := int(state[4*k+2]); got != id {
					t.Fatalf("op %d: AppendState event %d is ev %d, oracle ev %d", i, k, got, id)
				}
				if left := Time(math.Float64frombits(state[4*k])); left != o.events[id].at-e.Now() {
					t.Fatalf("op %d: ev %d due in %v, oracle %v", i, id, left, o.events[id].at-e.Now())
				}
			}
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
		want := o.inState(1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("total order diverged at %d: got ev %d, want ev %d", i, got[i], want[i])
			}
		}
	})
}
