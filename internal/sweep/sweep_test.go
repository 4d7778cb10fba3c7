package sweep

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"hetpipe/internal/core"
	"hetpipe/internal/sim"
)

// testGrid is small enough to simulate in well under a second but still
// crosses every axis: 2 clusters x 3 policies x 2 D x fixed Nm, plus the
// Horovod baseline per model/cluster.
func testGrid() Grid {
	return Grid{
		Models:    []string{"vgg19"},
		Clusters:  []string{"paper", "mini"},
		Policies:  []string{"NP", "ED", "HD"},
		SyncModes: []string{SyncWSP, SyncHorovod},
		DValues:   []int{0, 1},
		NmValues:  []int{2},
	}
}

func TestExpandCountsAndOrder(t *testing.T) {
	scenarios, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Per cluster: 1 Horovod + 3 policies x 2 D x 1 Nm = 7; two clusters.
	if len(scenarios) != 14 {
		t.Fatalf("scenarios = %d, want 14", len(scenarios))
	}
	for i, sc := range scenarios {
		if sc.Index != i {
			t.Errorf("scenario %d has index %d", i, sc.Index)
		}
		if sc.Batch != 32 {
			t.Errorf("%s: batch = %d, want default 32", sc.ID(), sc.Batch)
		}
	}
	// Horovod collapses the policy/placement/D/Nm axes.
	horovod := 0
	for _, sc := range scenarios {
		if sc.SyncMode == SyncHorovod {
			horovod++
			if sc.Policy != "" || sc.Placement != "" || sc.D != 0 || sc.Nm != 0 {
				t.Errorf("horovod scenario %s carries WSP axes", sc.ID())
			}
		}
	}
	if horovod != 2 {
		t.Errorf("horovod scenarios = %d, want 2 (one per model/cluster)", horovod)
	}
}

func TestExpandDeduplicatesAxes(t *testing.T) {
	g := testGrid()
	g.Models = []string{"vgg19", "vgg19"}
	g.DValues = []int{0, 1, 0}
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 14 {
		t.Fatalf("scenarios = %d, want 14 (duplicates not collapsed)", len(scenarios))
	}
	ids := map[string]bool{}
	for _, sc := range scenarios {
		if ids[sc.ID()] {
			t.Errorf("duplicate scenario ID %s", sc.ID())
		}
		ids[sc.ID()] = true
	}
}

// Serving reads no parameter placement, so a placement axis multiplies only
// the training cells: each serving spec gets one default-placement cell.
func TestExpandServingCollapsesPlacement(t *testing.T) {
	g := Grid{Models: []string{"vgg19"}, Clusters: []string{"mini"}, Policies: []string{"ED", "NP"}}
	for _, tc := range []struct {
		placements, traffics []string
		want                 []string // Policy/Placement/Traffic per scenario, in order
	}{
		{[]string{PlacementDefault, PlacementLocal}, []string{"poisson:r60:n300"},
			[]string{"ED/default/poisson:r60:n300", "NP/default/poisson:r60:n300"}},
		{[]string{PlacementLocal}, []string{"poisson:r60:n300"},
			[]string{"ED/default/poisson:r60:n300", "NP/default/poisson:r60:n300"}},
		{[]string{PlacementLocal, PlacementDefault}, []string{"poisson:r60:n300", ""}, []string{
			"ED/default/poisson:r60:n300", "ED/local/", "ED/default/",
			"NP/default/poisson:r60:n300", "NP/local/", "NP/default/",
		}},
	} {
		g.Placements, g.Traffics = tc.placements, tc.traffics
		scenarios, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, sc := range scenarios {
			got = append(got, sc.Policy+"/"+sc.Placement+"/"+sc.Traffic)
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("placements %v, traffics %q: scenarios\n %v\nwant\n %v", tc.placements, tc.traffics, got, tc.want)
		}
	}
}

// TestShortSimulationStaysFeasible guards the warmup sizing: a user-supplied
// minibatch budget smaller than the usual four-wave warmup must still
// simulate rather than fail inside the pipeline.
func TestShortSimulationStaysFeasible(t *testing.T) {
	set, err := Run(context.Background(), Grid{
		Models: []string{"vgg19"}, Clusters: []string{"paper"},
		Policies: []string{"ED"}, NmValues: []int{2}, DValues: []int{1},
		MinibatchesPerVW: 8,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range set.Results {
		if r.Error != "" {
			t.Errorf("%s: %s", r.Scenario.ID(), r.Error)
		}
		if r.Throughput <= 0 {
			t.Errorf("%s: no throughput measured", r.Scenario.ID())
		}
	}
}

func TestExpandRejectsInvalidAxes(t *testing.T) {
	base := testGrid()
	cases := []struct {
		name   string
		mutate func(*Grid)
	}{
		{"no models", func(g *Grid) { g.Models = nil }},
		{"unknown model", func(g *Grid) { g.Models = []string{"lenet"} }},
		{"no clusters", func(g *Grid) { g.Clusters = nil }},
		{"unknown cluster", func(g *Grid) { g.Clusters = []string{"dgx"} }},
		{"unknown policy", func(g *Grid) { g.Policies = []string{"XX"} }},
		{"no policies for wsp", func(g *Grid) { g.Policies = nil }},
		{"unknown sync mode", func(g *Grid) { g.SyncModes = []string{"ssp"} }},
		{"unknown placement", func(g *Grid) { g.Placements = []string{"remote"} }},
		{"negative D", func(g *Grid) { g.DValues = []int{0, -1} }},
		{"negative Nm", func(g *Grid) { g.NmValues = []int{-2} }},
		{"negative batch", func(g *Grid) { g.Batch = -1 }},
		{"negative minibatches", func(g *Grid) { g.MinibatchesPerVW = -1 }},
	}
	for _, c := range cases {
		g := base
		c.mutate(&g)
		if _, err := g.Expand(); err == nil {
			t.Errorf("%s: Expand accepted an invalid grid", c.name)
		}
	}
	// A Horovod-only grid is valid without policies.
	g := base
	g.SyncModes = []string{SyncHorovod}
	g.Policies = nil
	scenarios, err := g.Expand()
	if err != nil {
		t.Errorf("horovod-only grid rejected: %v", err)
	}
	if len(scenarios) != 2 {
		t.Errorf("horovod-only scenarios = %d, want 2", len(scenarios))
	}
}

// TestParallelMatchesSerial is the core determinism guarantee: a grid run on
// eight workers serializes to exactly the bytes of a serial run.
func TestParallelMatchesSerial(t *testing.T) {
	grid := testGrid()
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
	if serial.Failures() != 0 {
		for _, r := range serial.Results {
			if r.Error != "" {
				t.Errorf("%s failed: %s", r.Scenario.ID(), r.Error)
			}
		}
	}
}

func TestResultsCarryStructure(t *testing.T) {
	set, err := Run(context.Background(), testGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range set.Results {
		r := &set.Results[i]
		if r.Error != "" {
			t.Errorf("%s: %s", r.Scenario.ID(), r.Error)
			continue
		}
		if r.Throughput <= 0 {
			t.Errorf("%s: throughput %g", r.Scenario.ID(), r.Throughput)
		}
		if r.Scenario.SyncMode != SyncWSP {
			continue
		}
		if len(r.PerVW) != r.Workers || len(r.Plans) != r.Workers {
			t.Errorf("%s: perVW=%d plans=%d workers=%d", r.Scenario.ID(), len(r.PerVW), len(r.Plans), r.Workers)
		}
		if r.Nm != 2 || r.SLocal != 1 {
			t.Errorf("%s: nm=%d slocal=%d, want 2/1", r.Scenario.ID(), r.Nm, r.SLocal)
		}
		if want := (r.Scenario.D+1)*r.Nm + r.Nm - 2; r.SGlobal != want {
			t.Errorf("%s: sglobal=%d, want %d", r.Scenario.ID(), r.SGlobal, want)
		}
		for _, p := range r.Plans {
			if len(p.Stages) == 0 {
				t.Errorf("%s: empty partition plan", r.Scenario.ID())
			}
		}
	}
}

func TestOnResultObservesEveryScenario(t *testing.T) {
	seen := map[int]bool{}
	set, err := Run(context.Background(), testGrid(), Options{Workers: 4, OnResult: func(r Result) {
		if seen[r.Scenario.Index] {
			t.Errorf("scenario %d observed twice", r.Scenario.Index)
		}
		seen[r.Scenario.Index] = true
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(set.Results) {
		t.Errorf("observed %d scenarios, want %d", len(seen), len(set.Results))
	}
}

func TestSummarizeRanksPairs(t *testing.T) {
	set, err := Run(context.Background(), testGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := Summarize(set)
	if len(rows) != 2 {
		t.Fatalf("summary rows = %d, want 2 (vgg19 x {paper, mini})", len(rows))
	}
	for i, row := range rows {
		if row.Best == nil {
			t.Fatalf("row %d has no winner", i)
		}
		if row.Candidates != 7 {
			t.Errorf("row %d candidates = %d, want 7", i, row.Candidates)
		}
		if i > 0 && rows[i-1].Best.Throughput < row.Best.Throughput {
			t.Errorf("summary not ranked: row %d (%g) beats row %d (%g)",
				i, row.Best.Throughput, i-1, rows[i-1].Best.Throughput)
		}
		// The winner is the global maximum over the pair's scenarios,
		// Horovod baseline included.
		for _, r := range set.Results {
			if r.Scenario.Model == row.Model && r.Scenario.Cluster == row.Cluster &&
				r.Scenario.SyncMode == SyncHorovod && r.Throughput > row.Best.Throughput {
				t.Errorf("%s/%s: winner %s (%g) loses to %s (%g)", row.Model, row.Cluster,
					row.Best.Scenario.ID(), row.Best.Throughput, r.Scenario.ID(), r.Throughput)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteSummary(&buf, set); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BEST CONFIG") {
		t.Error("summary table missing header")
	}
}

func TestCSVShape(t *testing.T) {
	set, err := Run(context.Background(), Grid{
		Models: []string{"vgg19"}, Clusters: []string{"paper"},
		Policies: []string{"ED"}, NmValues: []int{2},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, set); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(set.Results) {
		t.Fatalf("CSV lines = %d, want %d", len(lines), 1+len(set.Results))
	}
	wantCols := len(strings.Split(lines[0], ","))
	if wantCols != len(csvHeader) {
		t.Fatalf("CSV header has %d columns, want %d", wantCols, len(csvHeader))
	}
}

func TestDeploymentReusePerFamily(t *testing.T) {
	// testGrid has 2 clusters x 3 policies = 6 WSP families, each swept at
	// 2 D values (12 WSP scenarios): exactly one deployment resolution per
	// family, never one per scenario.
	g := testGrid()
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, res, err := run(context.Background(), g, scenarios, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.deployments.built.Load(); got != 6 {
		t.Errorf("deployment resolutions = %d, want 6 (one per family)", got)
	}
	// The reused deployment is re-bound per scenario: staleness bounds
	// still reflect each scenario's own D.
	for i := range set.Results {
		r := &set.Results[i]
		if r.Scenario.SyncMode != SyncWSP || r.Error != "" {
			continue
		}
		if want := (r.Scenario.D+1)*r.Nm + r.Nm - 2; r.SGlobal != want {
			t.Errorf("%s: sglobal = %d, want %d", r.Scenario.ID(), r.SGlobal, want)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testGrid(), Options{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run(cancelled) = %v, want context.Canceled", err)
	}
}

// TestWarmCellAllocs pins what a cell costs a warm sweep worker: its
// deployment re-bound to its D and its co-simulation's MultiResult and PerVW,
// the same three whatever its lock-step group count and whether it is
// faulted. Everything else — pipelines, devices, coordinator, fault plan,
// plan summaries — the worker or the resolver already has.
func TestWarmCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	ctx := context.Background()
	res, cs := new(resolver), core.NewCoSim(sim.New())
	want := -1.0
	for _, policy := range []string{"ED", "HD", "NP"} {
		for _, faults := range []string{"", "slow:w0:x2"} {
			sc := Scenario{Model: "vgg19", Cluster: "paper", SyncMode: SyncWSP, Schedule: "hetpipe-fifo",
				Policy: policy, Placement: PlacementDefault, Faults: faults, D: 2, Nm: 4, Batch: 32}
			if r := runScenario(ctx, sc, res, cs); r.Error != "" {
				t.Fatalf("%s: %s", sc.ID(), r.Error)
			}
			got := testing.AllocsPerRun(20, func() { runScenario(ctx, sc, res, cs) })
			if got > 3 {
				t.Errorf("%s: a warm cell allocates %v times, want at most 3", sc.ID(), got)
			}
			if want < 0 {
				want = got
			} else if got != want {
				t.Errorf("%s: a warm cell allocates %v times, the first cell %v", sc.ID(), got, want)
			}
		}
	}
	t.Logf("a warm cell allocates %v times", want)
}
