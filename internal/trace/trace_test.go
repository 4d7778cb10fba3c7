package trace

import (
	"strings"
	"testing"

	"hetpipe/internal/sim"
)

func TestTraceSpansAndEnd(t *testing.T) {
	tr := New(2)
	tr.Add(0, 1, Forward, 0, 1)
	tr.Add(0, 1, Backward, 3, 4)
	tr.Add(1, 1, Forward, 1, 2)
	tr.Add(1, 1, Backward, 2, 3)
	if got := tr.end(); got != 4 {
		t.Errorf("end = %v, want 4", got)
	}
	spans := tr.StageSpans(0)
	if len(spans) != 2 {
		t.Fatalf("stage 0 spans = %d, want 2", len(spans))
	}
	if spans[0].Kind != Forward || spans[1].Kind != Backward {
		t.Errorf("span order wrong: %+v", spans)
	}
}

// TestPeakStashes: a stage's stashes rise with each finished forward and
// fall with each finished backward, and transfers count for nothing.
func TestPeakStashes(t *testing.T) {
	tr := New(2)
	tr.Add(0, 1, Forward, 0, 1)
	tr.Add(0, 2, Forward, 1, 2)
	tr.Add(1, 1, Forward, 1, 2)
	tr.Add(1, 1, Backward, 2, 3)
	tr.Add(0, 1, Transfer, 2, 3)
	tr.Add(0, 1, Backward, 3, 4)
	tr.Add(0, 3, Forward, 4, 5)
	tr.Add(0, 4, Forward, 5, 6)
	tr.Add(1, 2, Forward, 5, 6)
	if got := tr.PeakStashes(); len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("PeakStashes = %v, want [3 1]", got)
	}
}

func TestStageSpansExcludeTransfers(t *testing.T) {
	tr := New(1)
	tr.Add(0, 1, Forward, 0, 1)
	tr.Add(0, 1, Transfer, 1, 2)
	if got := len(tr.StageSpans(0)); got != 1 {
		t.Errorf("spans = %d, want 1 (transfer excluded)", got)
	}
}

func TestGanttRendering(t *testing.T) {
	tr := New(2)
	tr.Add(0, 1, Forward, 0, 0.5)
	tr.Add(0, 1, Backward, 1.5, 2)
	tr.Add(1, 1, Forward, 0.5, 1)
	tr.Add(1, 1, Backward, 1, 1.5)
	g := tr.Gantt(60)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 3 { // two stages + axis
		t.Fatalf("gantt lines = %d, want 3:\n%s", len(lines), g)
	}
	if !strings.HasPrefix(lines[0], "GPU1 |") || !strings.HasPrefix(lines[1], "GPU2 |") {
		t.Errorf("row labels wrong:\n%s", g)
	}
	if !strings.Contains(lines[0], "1") {
		t.Errorf("minibatch number missing from row:\n%s", g)
	}
	if !strings.Contains(lines[0], "[") {
		t.Errorf("backward bracket missing:\n%s", g)
	}
}

func TestGanttEmpty(t *testing.T) {
	tr := New(1)
	if g := tr.Gantt(40); g != "(empty trace)\n" {
		t.Errorf("empty gantt = %q", g)
	}
}

func TestSpanKindString(t *testing.T) {
	if Forward.String() != "fwd" || Backward.String() != "bwd" || Transfer.String() != "xfer" {
		t.Error("kind strings wrong")
	}
}

func TestGanttAxisOutgrowsNarrowWidths(t *testing.T) {
	// At the minimum width a run of 100 s or more has an axis label wider
	// than the chart; the label must run past the chart, not panic.
	for _, tc := range []struct {
		end   sim.Time
		width int
		label string
	}{
		{160.168, 10, "T=160.168s"},
		{1e6 + 0.5, 12, "T=1000000.500s"},
	} {
		tr := New(1)
		tr.Add(0, 1, Forward, 0, tc.end)
		lines := strings.Split(strings.TrimRight(tr.Gantt(tc.width), "\n"), "\n")
		if axis := lines[len(lines)-1]; !strings.HasSuffix(axis, tc.label) {
			t.Errorf("span %g at width %d: axis %q, want it to end in %q", tc.end, tc.width, axis, tc.label)
		}
	}
}
