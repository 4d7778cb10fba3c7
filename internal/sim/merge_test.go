package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// mergeRun drives one engine through a fuzz script either as RunMerged runs
// it or as the chained AtID form RunMerged replaces, logging every firing.
//
// The stream's times are cumulative small integer gaps (gap 0 is an exactly
// equal timestamp); every firing — stream or queue — consumes the next two
// script bytes and, by them, schedules one or two queue events 0..3 s ahead
// (integers again, so they land exactly on stream times), or cancels an
// earlier one. The script is finite, so the run drains.
type mergeRun struct {
	e       *Engine
	script  []byte
	pc      int
	log     []string
	handles []Handle
	queueID int32
	nextQ   int
}

func (m *mergeRun) logf(kind string, id int) {
	m.log = append(m.log, fmt.Sprintf("%s%d@%v#%d", kind, id, m.e.Now(), m.e.Fired()))
}

// body is what any firing does next, read off the script.
func (m *mergeRun) body() {
	if m.pc+1 >= len(m.script) {
		return
	}
	op, arg := m.script[m.pc]%5, m.script[m.pc+1]
	m.pc += 2
	switch op {
	case 1: // one pooled event, 0..3 s ahead
		m.handles = append(m.handles, m.e.AfterID(Duration(arg%4), m.queueID, int32(m.nextQ), 0, 0))
		m.nextQ++
	case 2: // two pooled events on the same instant
		for range 2 {
			m.handles = append(m.handles, m.e.AfterID(Duration(arg%4), m.queueID, int32(m.nextQ), 0, 0))
			m.nextQ++
		}
	case 3, 4: // cancel; op 4 leans toward old, likely-fired handles
		if len(m.handles) > 0 {
			i := int(arg) % len(m.handles)
			if op == 4 {
				i /= 2
			}
			m.log = append(m.log, fmt.Sprintf("cancel%d=%v", i, m.e.Cancel(m.handles[i])))
		}
	}
}

func runMergeScript(data []byte, merged bool) (log []string, err error, fired uint64, now Time, pending int) {
	if len(data) < 2 {
		return nil, nil, 0, 0, 0
	}
	n := int(data[0] % 24)
	limit := uint64(data[1] % 64) // 0: no step limit
	data = data[2:]
	if n > len(data) {
		n = len(data)
	}
	at := make([]Time, n)
	t := Time(0)
	for i := range at {
		t += Time(data[i] % 3)
		at[i] = t
	}
	m := &mergeRun{e: New(), script: data[n:]}
	m.e.SetStepLimit(limit)
	m.queueID = m.e.Register(func(a, _ int32, _ float64) { m.logf("q", int(a)); m.body() })
	// Events queued before the stream starts order ahead of its first event on
	// a tie: their sequence numbers are lower than the one it reserves.
	m.body()
	m.body()
	if merged {
		err = m.e.RunMerged(context.Background(), n, func(i int) Time { return at[i] }, func(i int) {
			m.logf("s", i)
			m.body()
		})
	} else {
		var chainID int32
		chainID = m.e.Register(func(a, _ int32, _ float64) {
			i := int(a)
			m.logf("s", i)
			m.body()
			if i+1 < n {
				m.e.AtID(at[i+1], chainID, int32(i+1), 0, 0)
			}
		})
		if n > 0 {
			m.e.AtID(at[0], chainID, 0, 0, 0)
		}
		err = m.e.RunContext(context.Background())
	}
	return m.log, err, m.e.Fired(), m.e.Now(), m.e.Pending()
}

// FuzzMergedStream is RunMerged's oracle: the same sorted stream, run once as
// the chained AtID events RunMerged replaces and once merged, under handlers
// that schedule, cancel and land on exactly equal timestamps, must fire the
// same events in the same order at the same Now() and Fired(), return the
// same error (a step limit may cut both short), and end in the same state.
func FuzzMergedStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 1})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 1, 0})             // everything at t=0
	f.Add([]byte{6, 0, 1, 0, 1, 0, 1, 0, 1, 1, 2, 1, 1, 0, 3, 0, 4, 1}) // ties, then cancels
	f.Add([]byte{5, 7, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 3, 2, 0})          // step limit mid-run
	f.Add([]byte{2, 0, 2, 2, 1, 3, 1, 3, 1, 3, 2, 3, 3, 1, 1, 0, 4, 2}) // queue outlives the stream
	// Each stream event schedules a queue event exactly onto the next one: it
	// was scheduled before the next event's sequence number was reserved, so
	// it fires first.
	f.Add([]byte{4, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	// The reverse tie: a queue event scheduled by a queue event that fired
	// after the reservation lands on the next stream event and fires second.
	f.Add([]byte{3, 0, 2, 2, 2, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		wantLog, wantErr, wantFired, wantNow, wantPending := runMergeScript(data, false)
		gotLog, gotErr, gotFired, gotNow, gotPending := runMergeScript(data, true)
		for i := 0; i < len(wantLog) && i < len(gotLog); i++ {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("firing %d: merged %s, chained %s", i, gotLog[i], wantLog[i])
			}
		}
		if len(gotLog) != len(wantLog) {
			t.Fatalf("merged logged %d firings, chained %d", len(gotLog), len(wantLog))
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("merged returned %v, chained %v", gotErr, wantErr)
		}
		if gotFired != wantFired || gotNow != wantNow {
			t.Fatalf("merged ended Fired=%d Now=%v, chained Fired=%d Now=%v", gotFired, gotNow, wantFired, wantNow)
		}
		// On a clean drain both queues are empty; cut short by the step limit,
		// the chained form still holds the one future arrival the merged form
		// never queued.
		if wantErr == nil && (gotPending != 0 || wantPending != 0) {
			t.Fatalf("drained with Pending merged %d, chained %d", gotPending, wantPending)
		}
	})
}

// An empty stream is RunContext.
func TestRunMergedEmptyStream(t *testing.T) {
	e := New()
	fired := false
	e.AtID(2, e.Register(func(_, _ int32, _ float64) { fired = true }), 0, 0, 0)
	if err := e.RunMerged(context.Background(), 0, nil, nil); err != nil || !fired || e.Now() != 2 || e.Fired() != 1 {
		t.Fatalf("err=%v fired=%v now=%v Fired=%d", err, fired, e.Now(), e.Fired())
	}
}

// Stream events count toward the step limit like queued ones.
func TestRunMergedStepLimit(t *testing.T) {
	e := New()
	e.SetStepLimit(10)
	fired := 0
	err := e.RunMerged(context.Background(), 100, func(i int) Time { return Time(i) }, func(int) { fired++ })
	if err == nil {
		t.Fatal("expected step-limit error from a 100-event stream under a limit of 10")
	}
	if fired != 11 || e.Fired() != 11 {
		t.Fatalf("fired %d stream events (Fired %d) before the limit tripped, want 11", fired, e.Fired())
	}
}

func TestRunMergedContextCancellation(t *testing.T) {
	// Pre-cancelled: nothing fires, from the stream or the queue.
	e := New()
	fired := 0
	e.AtID(1, e.Register(func(_, _ int32, _ float64) { fired++ }), 0, 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunMerged(ctx, 5, func(i int) Time { return Time(i) }, func(int) { fired++ })
	if !errors.Is(err, context.Canceled) || fired != 0 {
		t.Fatalf("RunMerged(cancelled) = %v after %d firings, want context.Canceled after none", err, fired)
	}

	// Cancelled mid-run by a stream event: the run stops within one check
	// interval, with stream and queue events both counted toward it.
	e2 := New()
	ctx2, cancel2 := context.WithCancel(context.Background())
	count := 0
	echo := e2.Register(func(_, _ int32, _ float64) { count++ })
	err = e2.RunMerged(ctx2, 1<<20, func(i int) Time { return Time(i) }, func(i int) {
		count++
		if i == 10 {
			cancel2()
		}
		e2.AfterID(0.5, echo, 0, 0, 0)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMerged mid-run = %v, want context.Canceled", err)
	}
	if count >= 21+ctxCheckInterval {
		t.Fatalf("engine fired %d events, %d of them after cancellation", count, count-21)
	}
}

func TestRunMergedBackwardsStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a stream stepping back in time did not panic")
		}
	}()
	at := []Time{1, 3, 2}
	New().RunMerged(context.Background(), len(at), func(i int) Time { return at[i] }, func(int) {})
}
