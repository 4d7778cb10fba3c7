package sweep

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// servingGrid crosses the serving axis with training baselines, a fault
// axis, and a D axis that only the training scenarios may expand.
func servingGrid() Grid {
	return Grid{
		Models:   []string{"vgg19"},
		Clusters: []string{"paper"},
		Policies: []string{"NP", "ED"},
		Faults:   []string{"", "slow:w0:x4"},
		Traffics: []string{"", "poisson:r120:n400:crit0.2", "closed:u16:t0.02:n300"},
		DValues:  []int{0, 2},
		NmValues: []int{2},
		// Keep the training cells short; the serving cells are sized by the
		// traffic specs' request counts.
		MinibatchesPerVW: 8,
	}
}

func TestServingAxisExpansion(t *testing.T) {
	scenarios, err := servingGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Per policy and fault value: training at 2 D values + 2 serving specs
	// collapsed to D=0 = 4 cells; 2 policies x 2 faults = 16 scenarios.
	if len(scenarios) != 16 {
		t.Fatalf("scenarios = %d, want 16", len(scenarios))
	}
	ids := map[string]bool{}
	for _, sc := range scenarios {
		if ids[sc.ID()] {
			t.Errorf("duplicate scenario ID %s", sc.ID())
		}
		ids[sc.ID()] = true
		if sc.Traffic != "" && sc.D != 0 {
			t.Errorf("%s: serving scenario kept D=%d, want collapsed to 0", sc.ID(), sc.D)
		}
		if sc.Traffic != "" && !strings.Contains(sc.ID(), "/t:"+sc.Traffic) {
			t.Errorf("%s: ID missing /t: segment", sc.ID())
		}
	}
	// A faulted serving scenario carries both suffixes, fault first, and its
	// degradation baseline is the fault-free serving twin.
	sc := Scenario{
		Model: "vgg19", Cluster: "paper", SyncMode: SyncWSP,
		Schedule: "hetpipe-fifo", Policy: "NP", Placement: PlacementDefault,
		Faults: "slow:w0:x4", Traffic: "poisson:r120:n400", Nm: 2, Batch: 32,
	}
	if got := sc.ID(); !strings.HasSuffix(got, "/f:slow:w0:x4/t:poisson:r120:n400") {
		t.Errorf("faulted serving ID = %s", got)
	}
	if twin := sc.twin(); !strings.HasSuffix(twin.ID(), "/nm2/t:poisson:r120:n400") {
		t.Errorf("baseline ID = %s", twin.ID())
	}
}

func TestGridRejectsBadTraffic(t *testing.T) {
	g := servingGrid()
	g.Traffics = []string{"warp:r10:n5"}
	if _, err := g.Expand(); err == nil {
		t.Error("Expand accepted an unknown traffic kind")
	}
	g.Traffics = []string{"poisson:r0:n5"}
	if _, err := g.Expand(); err == nil {
		t.Error("Expand accepted a zero-rate traffic spec")
	}
}

// TestServingSweepDeterminism extends the worker-count determinism guarantee
// to the traffic axis: a grid mixing training, open-loop serving,
// closed-loop serving, and faulted twins serializes to identical bytes at
// any worker count, and the streaming aggregation stays interchangeable
// with the materialized one.
func TestServingSweepDeterminism(t *testing.T) {
	grid := servingGrid()
	serial, err := Run(context.Background(), grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), grid, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var sj, pj, sc, pc bytes.Buffer
	if err := WriteJSON(&sj, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&pj, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), pj.Bytes()) {
		t.Error("JSON output differs between workers=1 and workers=8")
	}
	if err := WriteCSV(&sc, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&pc, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sc.Bytes(), pc.Bytes()) {
		t.Error("CSV output differs between workers=1 and workers=8")
	}
	stream, err := RunStream(context.Background(), grid, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summaryJSON(t, stream), summaryJSON(t, Aggregate(serial)); !bytes.Equal(got, want) {
		t.Error("streaming summary diverges from materialized aggregation on a serving grid")
	}

	// The serving rows carry the latency surface and drain their offer.
	serving := 0
	for i := range serial.Results {
		r := &serial.Results[i]
		if r.Error != "" {
			t.Errorf("%s: %s", r.Scenario.ID(), r.Error)
			continue
		}
		if r.Scenario.Traffic == "" {
			if r.Served != 0 || r.P99 != 0 {
				t.Errorf("%s: training row carries serving fields", r.Scenario.ID())
			}
			continue
		}
		serving++
		wantN := 400
		if strings.HasPrefix(r.Scenario.Traffic, "closed") {
			wantN = 300
		}
		if r.Served != wantN {
			t.Errorf("%s: served %d of %d", r.Scenario.ID(), r.Served, wantN)
		}
		if !(r.P50 > 0 && r.P50 <= r.P95 && r.P95 <= r.P99) {
			t.Errorf("%s: percentiles p50=%g p95=%g p99=%g", r.Scenario.ID(), r.P50, r.P95, r.P99)
		}
		if r.Throughput <= 0 || r.MeanBatchFill < 1 {
			t.Errorf("%s: throughput=%g fill=%g", r.Scenario.ID(), r.Throughput, r.MeanBatchFill)
		}
		if len(r.Plans) != r.Workers || r.Workers == 0 {
			t.Errorf("%s: plans=%d workers=%d", r.Scenario.ID(), len(r.Plans), r.Workers)
		}
		if r.Scenario.Faults != "" {
			if r.FaultInjections < 1 {
				t.Errorf("%s: no fault injections", r.Scenario.ID())
			}
			// A straggler can only delay replies, so the fault-free serving
			// twin's requests/sec bounds the faulted row's from above.
			if r.DegradationPct < 0 {
				t.Errorf("%s: degradation %g%% < 0", r.Scenario.ID(), r.DegradationPct)
			}
		}
	}
	if serving != 8 {
		t.Errorf("serving rows = %d, want 8", serving)
	}
}
