package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func summaryJSON(t *testing.T, s *StreamSummary) []byte {
	t.Helper()
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The streaming path must be byte-for-byte interchangeable with aggregating
// a materialized sweep of the same grid.
func TestStreamMatchesMaterialized(t *testing.T) {
	grid := testGrid()
	set, err := Run(context.Background(), grid, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := RunStream(context.Background(), grid, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, got := summaryJSON(t, Aggregate(set)), summaryJSON(t, stream)
	if !bytes.Equal(want, got) {
		t.Errorf("streaming summary differs from materialized aggregate:\nmaterialized: %s\nstreaming:    %s", want, got)
	}
	if stream.Scenarios != len(set.Results) || stream.Failures != set.Failures() {
		t.Errorf("counts: scenarios=%d failures=%d, want %d, %d",
			stream.Scenarios, stream.Failures, len(set.Results), set.Failures())
	}
	// The pair ranking must agree with Summarize's winners.
	rows := Summarize(set)
	if len(rows) != len(stream.Pairs) {
		t.Fatalf("pairs = %d, want %d", len(stream.Pairs), len(rows))
	}
	for i, row := range rows {
		p := stream.Pairs[i]
		if p.Model != row.Model || p.Cluster != row.Cluster {
			t.Errorf("pair %d = %s/%s, want %s/%s", i, p.Model, p.Cluster, row.Model, row.Cluster)
		}
		if row.Best != nil && (p.BestID != row.Best.Scenario.ID() || p.BestThroughput != row.Best.Throughput) {
			t.Errorf("pair %d winner = %s (%g), want %s (%g)",
				i, p.BestID, p.BestThroughput, row.Best.Scenario.ID(), row.Best.Throughput)
		}
	}
	var buf bytes.Buffer
	if err := WriteStreamSummary(&buf, stream); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BEST CONFIG") {
		t.Error("stream summary table missing header")
	}
}

func TestStreamParallelMatchesSerial(t *testing.T) {
	grid := testGrid()
	serial, err := RunStream(context.Background(), grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunStream(context.Background(), grid, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := summaryJSON(t, serial), summaryJSON(t, parallel); !bytes.Equal(s, p) {
		t.Errorf("stream summary differs between workers=1 and workers=8:\nserial:   %s\nparallel: %s", s, p)
	}
}

// scaleGrid expands to exactly 100,000 cells: one cheap family (alexnet on
// the mini cluster) swept across a wide fault axis and two D values, so every
// cell reuses the single resolved deployment and only the discrete-event
// simulation runs per cell.
func scaleGrid() Grid {
	faults := make([]string, 25000)
	for i := 1; i < len(faults); i++ {
		faults[i] = fmt.Sprintf("slow:w0:x1.%04d", i)
	}
	return Grid{
		Models:           []string{"alexnet"},
		Clusters:         []string{"mini"},
		Policies:         []string{"NP"},
		NmValues:         []int{1, 2},
		DValues:          []int{0, 1},
		Faults:           faults,
		MinibatchesPerVW: 8,
	}
}

// TestStreamScale is the 10^5-cell wall: the streaming sweep must agree with
// the materialized aggregate and with its own serial run bit for bit, and its
// retained heap must stay bounded by the grid's axes — not by 10^5 rows of
// plans and per-VW vectors.
func TestStreamScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-cell sweep; skipped with -short")
	}
	grid := scaleGrid()
	scenarios, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 100000 {
		t.Fatalf("grid expands to %d cells, want 100000", len(scenarios))
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stream, err := RunStream(context.Background(), grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The summary plus transient state must stay far below what 10^5
	// materialized Result rows occupy (hundreds of MB): everything RunStream
	// retains is O(axes), so 64 MB is generous headroom for the expanded
	// scenario list itself.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<20 {
		t.Errorf("streaming sweep retained %d MB of heap, want < 64 MB", grew>>20)
	}
	if stream.Scenarios != len(scenarios) {
		t.Fatalf("summary covers %d scenarios, want %d", stream.Scenarios, len(scenarios))
	}
	if stream.Failures != 0 {
		t.Errorf("%d of %d scenarios failed", stream.Failures, stream.Scenarios)
	}
	if stream.Throughput.N != stream.Scenarios ||
		stream.Throughput.Min <= 0 ||
		stream.Throughput.P50 < stream.Throughput.Min ||
		stream.Throughput.P90 < stream.Throughput.P50 ||
		stream.Throughput.P99 < stream.Throughput.P90 ||
		stream.Throughput.Max < stream.Throughput.P99 {
		t.Errorf("implausible throughput stats: %+v", stream.Throughput)
	}

	serial, err := RunStream(context.Background(), grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := summaryJSON(t, serial), summaryJSON(t, stream); !bytes.Equal(s, p) {
		t.Errorf("10^5-cell stream summary differs between workers=1 and parallel:\nserial:   %s\nparallel: %s", s, p)
	}

	set, err := Run(context.Background(), grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w, g := summaryJSON(t, Aggregate(set)), summaryJSON(t, stream); !bytes.Equal(w, g) {
		t.Errorf("10^5-cell streaming summary differs from materialized aggregate:\nmaterialized: %s\nstreaming:    %s", w, g)
	}
}
