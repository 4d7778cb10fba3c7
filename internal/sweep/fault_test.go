package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"testing"
)

// faultGrid is a small grid with a fault axis: the fault-free baseline and a
// 3x straggler on VW 0, on the mini cluster so it stays fast.
func faultGrid() Grid {
	return Grid{
		Models:   []string{"resnet152"},
		Clusters: []string{"mini"},
		Policies: []string{"ED"},
		Faults:   []string{"", "slow:w0:x3"},
		DValues:  []int{0},
		NmValues: []int{2},
	}
}

func TestGridFaultAxisExpansion(t *testing.T) {
	g := faultGrid()
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 {
		t.Fatalf("expanded %d scenarios, want 2", len(scs))
	}
	if scs[0].Faults != "" || scs[1].Faults != "slow:w0:x3" {
		t.Fatalf("fault axis order wrong: %q then %q", scs[0].Faults, scs[1].Faults)
	}
	if scs[0].ID() == scs[1].ID() {
		t.Fatal("faulted and baseline scenarios share an ID")
	}
	if !strings.Contains(scs[1].ID(), "/f:slow:w0:x3") {
		t.Errorf("faulted ID lacks the fault segment: %q", scs[1].ID())
	}

	// Horovod collapses the fault axis.
	g.SyncModes = []string{SyncHorovod}
	scs, err = g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("horovod expanded %d scenarios, want 1", len(scs))
	}

	// A bad spec fails the whole grid up front — a non-finite real too, which
	// no range check sees.
	for _, spec := range []string{"boom:w0", "slow:w0:xNaN"} {
		bad := faultGrid()
		bad.Faults = []string{"", spec}
		if _, err := bad.Expand(); err == nil {
			t.Errorf("Expand accepted the fault spec %q", spec)
		}
	}
}

func TestSweepFaultDegradation(t *testing.T) {
	set, err := Run(context.Background(), faultGrid(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := set.Failures(); n != 0 {
		t.Fatalf("%d scenarios failed", n)
	}
	base, faulted := &set.Results[0], &set.Results[1]
	if base.DegradationPct != 0 {
		t.Errorf("baseline degradation %g, want 0", base.DegradationPct)
	}
	if faulted.Throughput >= base.Throughput {
		t.Errorf("straggler throughput %g not below baseline %g", faulted.Throughput, base.Throughput)
	}
	want := (base.Throughput - faulted.Throughput) / base.Throughput * 100
	if faulted.DegradationPct != want {
		t.Errorf("degradation %g, want %g", faulted.DegradationPct, want)
	}
	if faulted.FaultInjections == 0 {
		t.Error("faulted scenario recorded no injections")
	}

	// The CSV carries the fault columns.
	var buf bytes.Buffer
	if err := WriteCSV(&buf, set); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := rows[0]
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("CSV lacks column %q", name)
		return -1
	}
	fc, dc := col("faults"), col("degradation_pct")
	if rows[2][fc] != "slow:w0:x3" {
		t.Errorf("faults cell %q", rows[2][fc])
	}
	if rows[1][dc] != "0" {
		t.Errorf("baseline degradation cell %q, want 0", rows[1][dc])
	}
	if rows[2][dc] == "0" || rows[2][dc] == "" {
		t.Errorf("faulted degradation cell %q, want non-zero", rows[2][dc])
	}
}

func TestSweepFaultAxisDeterministic(t *testing.T) {
	g := faultGrid()
	a, err := Run(context.Background(), g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := WriteJSON(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("fault-axis sweep output depends on the worker count")
	}
}
