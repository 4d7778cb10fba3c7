package core

import (
	"context"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/obs"
)

// The simulator's event stream must arrive in a coherent order: virtual time
// non-decreasing across the whole stream (events come off one engine's loop),
// each VW's minibatch numbers strictly increasing, and the global clock never
// going backwards. This is the contract observers lean on (the callback given
// to the public WithObserver is called directly), and the pooled engine
// rewrite must not have perturbed it.
func TestObserverEventOrdering(t *testing.T) {
	dep := deploy(t, model.ResNet152(), hw.EqualDistribution, 2, 0, PlacementDefault)
	var events []obs.Event
	record := func(e obs.Event) { events = append(events, e) }
	if _, err := dep.SimulateWSPFaults(context.Background(), dep.DefaultMinibatches(), 4*dep.Nm, record, nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	lastTime := -1.0
	lastClock := -1
	lastMB := map[int]int{}
	perVW := 0
	for i, e := range events {
		if e.Backend != "sim" {
			t.Fatalf("event %d backend = %q, want sim", i, e.Backend)
		}
		if e.Time < lastTime {
			t.Fatalf("event %d time %g < previous %g", i, e.Time, lastTime)
		}
		lastTime = e.Time
		if e.Kind == obs.KindClock {
			if e.Clock < lastClock {
				t.Fatalf("event %d clock %d < previous %d", i, e.Clock, lastClock)
			}
			lastClock = e.Clock
		}
		if e.Kind == obs.KindMinibatch {
			if e.Minibatch != lastMB[e.VW]+1 {
				t.Fatalf("vw %d minibatch %d after %d: not consecutive", e.VW, e.Minibatch, lastMB[e.VW])
			}
			lastMB[e.VW] = e.Minibatch
			perVW++
		}
	}
	if want := len(dep.VWs) * dep.DefaultMinibatches(); perVW != want {
		t.Errorf("minibatch events = %d, want %d", perVW, want)
	}
}
