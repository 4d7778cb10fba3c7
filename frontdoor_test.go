package hetpipe

import (
	"context"
	"reflect"
	"testing"

	"hetpipe/internal/cluster"
	"hetpipe/internal/core"
	"hetpipe/internal/obs"
	"hetpipe/internal/serve"
)

// The root package re-exports the backends' own result and event types; it
// declares no twin of any of them.
func TestResultTypesAreTheBackends(t *testing.T) {
	for _, tc := range []struct {
		name      string
		root, own any
	}{
		{"Event", Event{}, obs.Event{}},
		{"EventKind", EventKind(0), obs.Kind(0)},
		{"Observer", Observer(nil), obs.Func(nil)},
		{"ServeResult", ServeResult{}, serve.Result{}},
		{"ServeReplica", ServeReplica{}, serve.ReplicaStats{}},
		{"ServeRequest", ServeRequest{}, serve.RequestTrace{}},
		{"LatencySummary", LatencySummary{}, serve.LatencySummary{}},
		{"Planning", Planning{}, core.Planning{}},
	} {
		if reflect.TypeOf(tc.root) != reflect.TypeOf(tc.own) {
			t.Errorf("hetpipe.%s is %v, want the backend's %v", tc.name, reflect.TypeOf(tc.root), reflect.TypeOf(tc.own))
		}
	}
}

func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{
		EventMinibatch: "minibatch", EventPush: "push", EventPull: "pull",
		EventClockAdvance: "clock", EventFaultInject: "fault-inject", EventRecover: "recover",
		EventArrive: "arrive", EventAdmit: "admit", EventReply: "reply",
	}
	if len(want) != 9 {
		t.Fatalf("%d distinct kinds, want 9", len(want))
	}
	for k := EventKind(-2); k <= 12; k++ {
		name, ok := want[k]
		if !ok {
			name = "unknown"
		}
		if got := EventKind(k).String(); got != name {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, name)
		}
	}
}

// recorder collects an observer stream; every backend serialises its calls.
type recorder []Event

func (r *recorder) observe(e Event) { *r = append(*r, e) }

// sameStream fails unless the observer given to WithObserver saw exactly what
// the backend emitted when handed an observer directly: the same count, kinds
// and order (and every other field; wall-clock Time aside when asked).
func sameStream(t *testing.T, name string, got, want recorder, ignoreTime bool) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: the backend emitted nothing", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: observer saw %d events, backend emitted %d", name, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if ignoreTime {
			g.Time, w.Time = 0, 0
		}
		if g != w {
			t.Fatalf("%s: event %d = %+v, backend emitted %+v", name, i, g, w)
		}
	}
}

func TestObserverSeesTheBackendsStream(t *testing.T) {
	ctx := context.Background()
	var got recorder
	dep, err := New(
		WithModel("vgg19"), WithSpecs("VRGQ"), WithNm(2), WithD(1), WithMinibatchesPerVW(16),
		WithFaults("slow:w0:x2,crash:w0:mb7:down0.01"), WithCheckpoint(2),
		WithTraffic("poisson:r60:n200:crit0.2"),
		WithObserver(got.observe),
	)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := dep.Simulate(ctx); err != nil {
		t.Fatal(err)
	}
	var want recorder
	if _, err := dep.dep.SimulateWSPFaults(ctx, 16, 4*dep.Nm(), want.observe, dep.faults, 2); err != nil {
		t.Fatal(err)
	}
	sameStream(t, "Simulate", got, want, false)

	got, want = nil, nil
	if _, err := dep.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.Run(ctx, dep.dep, dep.traffic, serve.Options{Faults: dep.faults, Obs: want.observe}); err != nil {
		t.Fatal(err)
	}
	sameStream(t, "Serve", got, want, false)

	// One live worker emits a deterministic stream but for its wall clock.
	got, want = nil, nil
	if _, err := dep.Train(ctx); err != nil {
		t.Fatal(err)
	}
	task, err := dep.newTask()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(ctx, cluster.Config{
		Task: task, Workers: 1, Servers: len(dep.dep.Sys.Cluster.Nodes), SLocal: dep.SLocal(), D: dep.D(),
		LR: dep.set.lr, MaxMinibatches: 16, Observer: want.observe, Faults: dep.faults, CheckpointEvery: 2,
	}); err != nil {
		t.Fatal(err)
	}
	sameStream(t, "Train", got, want, true)
}
