package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one layer-boundary interval recorded by the benchmark around a call
// into the program. parent indexes tracer.spans (-1 for a root); round is the
// piece the span belongs to, the identifier spans of one round share.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	round      int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code runs traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	round int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, round: t.round})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.t0)
}

// mark returns the index the next span will get, for since.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// layerTimes sums, per span name, the seconds and the count of the spans
// recorded since mark.
type layerTimes struct {
	total map[string]float64
	count map[string]int
}

func (t *tracer) since(mark int) layerTimes {
	lt := layerTimes{total: map[string]float64{}, count: map[string]int{}}
	if t == nil {
		return lt
	}
	for i := mark; i < len(t.spans); i++ {
		s := &t.spans[i]
		lt.total[s.name] += (s.end - s.start).Seconds()
		lt.count[s.name]++
	}
	return lt
}

// write emits the spans as a chrome://tracing / Perfetto JSON array of
// complete events on one track (the viewer nests them by containment).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	for i := range t.spans {
		s := &t.spans[i]
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"round\":%d}}",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.round)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
