// Package trace records pipeline execution schedules and renders them as
// ASCII Gantt charts in the style of the paper's Figure 1: one row per GPU,
// forward and backward spans labeled with their minibatch number.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"hetpipe/internal/sim"
)

// SpanKind distinguishes forward from backward work.
type SpanKind int

const (
	// Forward is a forward-pass execution span.
	Forward SpanKind = iota
	// Backward is a backward-pass execution span.
	Backward
	// Transfer is an inter-stage communication span.
	Transfer
)

func (k SpanKind) String() string {
	switch k {
	case Forward:
		return "fwd"
	case Backward:
		return "bwd"
	case Transfer:
		return "xfer"
	default:
		return fmt.Sprintf("SpanKind(%d)", int(k))
	}
}

// Span is one scheduled execution interval.
type Span struct {
	Stage     int
	Minibatch int
	Kind      SpanKind
	Start     sim.Time
	End       sim.Time
}

// Trace accumulates spans for one virtual worker's pipeline.
type Trace struct {
	Stages int
	Spans  []Span
}

// New creates a trace for a k-stage pipeline.
func New(stages int) *Trace {
	return &Trace{Stages: stages}
}

// Add records a span.
func (t *Trace) Add(stage, minibatch int, kind SpanKind, start, end sim.Time) {
	t.Spans = append(t.Spans, Span{Stage: stage, Minibatch: minibatch, Kind: kind, Start: start, End: end})
}

// StageSpans returns the compute spans of one stage in start order.
func (t *Trace) StageSpans(stage int) []Span {
	var out []Span
	for _, s := range t.Spans {
		if s.Stage == stage && s.Kind != Transfer {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// PeakStashes reports, per stage, the most activation stashes the stage
// held at once: its finished forwards less its finished backwards, at their
// peak. Spans are recorded as tasks finish and a stage's device is serial,
// so recording order is execution order on every stage. The count starts a
// stash when its forward finishes, not when it starts, so it never
// over-counts.
func (t *Trace) PeakStashes() []int {
	held, peak := make([]int, t.Stages), make([]int, t.Stages)
	for _, s := range t.Spans {
		switch s.Kind {
		case Forward:
			held[s.Stage]++
			peak[s.Stage] = max(peak[s.Stage], held[s.Stage])
		case Backward:
			held[s.Stage]--
		}
	}
	return peak
}

// end reports the latest span end time.
func (t *Trace) end() sim.Time {
	var end sim.Time
	for _, s := range t.Spans {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// Gantt renders the schedule as text, one row per stage, to the given column
// width. Forward spans render as the minibatch number, backward spans as the
// number bracketed (e.g. [3]), idle time as dots.
func (t *Trace) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	end := t.end()
	if end <= 0 {
		return "(empty trace)\n"
	}
	scale := float64(width) / float64(end)
	var b strings.Builder
	for stage := 0; stage < t.Stages; stage++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range t.StageSpans(stage) {
			lo := int(float64(s.Start) * scale)
			hi := int(float64(s.End) * scale)
			if hi >= width {
				hi = width - 1
			}
			label := fmt.Sprintf("%d", s.Minibatch)
			if s.Kind == Backward {
				label = "[" + label + "]"
			}
			for i := lo; i <= hi && i < width; i++ {
				ch := byte('#')
				if idx := i - lo; idx < len(label) {
					ch = label[idx]
				}
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "GPU%d |%s|\n", stage+1, string(row))
	}
	// The axis puts the span's label flush right; a label wider than the
	// chart (long spans at small widths) runs past it instead.
	axis := fmt.Sprintf("T=%.3fs", float64(end))
	fmt.Fprintf(&b, "      0%s%s\n", strings.Repeat(" ", max(width-len(axis)-1, 0)), axis)
	return b.String()
}
