package experiment

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryListsAllExperiments(t *testing.T) {
	want := []string{
		"table1", "table3", "table4",
		"figure1", "figure3", "figure4", "figure5", "figure6",
		"syncoverhead", "theorem1", "traffic",
		"ablation-wavepush", "ablation-memaware", "ablation-nmsweep", "ablation-dsweep",
	}
	names := Names()
	have := make(map[string]bool)
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %q not registered", w)
		}
	}
	if !strings.Contains(strings.Join(names, ","), "figure4") {
		t.Error("names missing figure4")
	}
}

func TestDefsCarryMetadata(t *testing.T) {
	defs := Defs()
	if len(defs) != len(Names()) {
		t.Fatalf("defs = %d, names = %d", len(defs), len(Names()))
	}
	for _, d := range defs {
		if d.Name == "" || d.Paper == "" || d.Title == "" || d.Run == nil {
			t.Errorf("incomplete def: %+v", d)
		}
	}
}

// TestCatalogDocumentsEveryExperiment keeps EXPERIMENTS.md in lockstep with
// the registry: every registered experiment must have a catalog section.
func TestCatalogDocumentsEveryExperiment(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("EXPERIMENTS.md missing: %v", err)
	}
	for _, name := range Names() {
		if !strings.Contains(string(doc), fmt.Sprintf("`%s`", name)) {
			t.Errorf("EXPERIMENTS.md does not document %q", name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// throughputExperiments are the experiments whose rows come from the timing
// model and the catalogs alone, with no training: fast enough to pin to the
// byte under -short.
var throughputExperiments = []string{
	"table1", "table3", "figure1", "figure3", "figure4", "table4",
	"ablation-wavepush", "ablation-memaware", "ablation-nmsweep", "ablation-dsweep",
	"traffic",
}

// TestThroughputExperimentsGolden pins every throughputExperiments report to
// the byte (testdata/throughput.golden), so a refactor of the planner, the
// co-simulation or the way the experiments resolve their deployments cannot
// move a printed number unnoticed. An intended change: rerun with -update and
// bring EXPERIMENTS.md's quotes along.
func TestThroughputExperimentsGolden(t *testing.T) {
	var all strings.Builder
	for _, name := range throughputExperiments {
		r, err := Run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Lines) == 0 {
			t.Errorf("%s produced no rows", name)
		}
		all.WriteString(r.String())
	}
	checkGolden(t, "testdata/throughput.golden", all.String())
}

// TestFastExperimentsProduceRows runs the fast experiments the goldens do not
// cover under -short; the convergence studies (figure5/figure6) run in
// TestConvergenceFigures.
func TestFastExperimentsProduceRows(t *testing.T) {
	for _, name := range []string{"theorem1"} {
		r, err := Run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Lines) == 0 {
			t.Errorf("%s produced no rows", name)
		}
		if !strings.Contains(r.String(), r.Title) {
			t.Errorf("%s: rendering missing title", name)
		}
	}
}

func TestTable1MatchesCatalog(t *testing.T) {
	r, err := Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	for _, gpu := range []string{"TITAN V", "TITAN RTX", "GeForce RTX 2060", "Quadro P4000"} {
		if !strings.Contains(joined, gpu) {
			t.Errorf("table1 missing %s", gpu)
		}
	}
}

// TestTheorem1AllHold: on every configuration the regret of the worker
// program sits under the bound, and the staleness it observed meets the WSP
// bound exactly, as cluster/reference_test.go asserts for the backends.
func TestTheorem1AllHold(t *testing.T) {
	r, err := Run("theorem1")
	if err != nil {
		t.Fatal(err)
	}
	rows := numbersAfter(t, r, "sglobal=", "stale=", "regret=")
	for i, line := range r.Lines {
		if strings.Contains(line, "VIOLATED") {
			t.Errorf("regret bound violated: %s", line)
		}
		if sglobal, stale, regret := rows[i][0], rows[i][1], rows[i][2]; stale != sglobal {
			t.Errorf("observed staleness %g, want sglobal %g: %s", stale, sglobal, line)
		} else if regret < -0.05 {
			t.Errorf("regret %.4f is substantially negative (w* estimate broken?): %s", regret, line)
		}
	}
}

func TestTrafficShapesHold(t *testing.T) {
	r, err := Run("traffic")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 2 {
		t.Fatalf("traffic rows = %d, want 2", len(r.Lines))
	}
}

func TestFigure4ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("figure4 runs many simulations")
	}
	r, err := Run("figure4")
	if err != nil {
		t.Fatal(err)
	}
	// The decisive paper shape: ED-local beats every other policy for both
	// models, and for VGG-19 the default-placement policies fall below
	// Horovod.
	var vggSection bool
	vals := map[string]float64{}
	for _, line := range r.Lines {
		if strings.Contains(line, "VGG-19") {
			vggSection = true
			continue
		}
		if !vggSection {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		label := fields[0]
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			vals[label] = v
		}
	}
	if vals["ED-local"] == 0 || vals["Horovod"] == 0 {
		t.Fatalf("could not parse figure4 rows: %v", vals)
	}
	if vals["ED-local"] <= vals["Horovod"] {
		t.Errorf("ED-local (%v) should beat Horovod (%v) for VGG-19", vals["ED-local"], vals["Horovod"])
	}
	if vals["ED"] >= vals["Horovod"] {
		t.Errorf("ED default (%v) should trail Horovod (%v) for VGG-19", vals["ED"], vals["Horovod"])
	}
	if vals["NP"] >= vals["ED-local"] {
		t.Errorf("NP (%v) should trail ED-local (%v)", vals["NP"], vals["ED-local"])
	}
}
