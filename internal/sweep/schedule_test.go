package sweep

import (
	"context"
	"strings"
	"testing"

	"hetpipe/internal/sched"
)

// TestScheduleAxisExpansion checks that the schedule axis multiplies WSP
// scenarios, collapses for Horovod, and defaults to hetpipe-fifo.
func TestScheduleAxisExpansion(t *testing.T) {
	g := Grid{
		Models:    []string{"vgg19"},
		Clusters:  []string{"paper"},
		Policies:  []string{"ED"},
		SyncModes: []string{SyncWSP, SyncHorovod},
		Schedules: []string{sched.NameFIFO, sched.NameOneF1B, sched.NameOverlap},
		NmValues:  []int{2},
	}
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3 schedules x 1 policy x 1 placement x 1 D x 1 Nm + 1 Horovod.
	if len(scenarios) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(scenarios))
	}
	seen := map[string]bool{}
	for _, sc := range scenarios {
		if sc.SyncMode == SyncHorovod {
			if sc.Schedule != "" {
				t.Errorf("horovod scenario carries schedule %q", sc.Schedule)
			}
			continue
		}
		seen[sc.Schedule] = true
		if !strings.Contains(sc.ID(), sc.Schedule) {
			t.Errorf("scenario ID %q does not name its schedule %q", sc.ID(), sc.Schedule)
		}
	}
	for _, want := range []string{sched.NameFIFO, sched.NameOneF1B, sched.NameOverlap} {
		if !seen[want] {
			t.Errorf("schedule %s missing from expansion", want)
		}
	}

	// Empty axis defaults to the default schedule.
	g.Schedules = nil
	scenarios, err = g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		if sc.SyncMode == SyncWSP && sc.Schedule != sched.Default().Name() {
			t.Errorf("default schedule = %q, want %q", sc.Schedule, sched.Default().Name())
		}
	}

	// Unknown schedules are rejected before any simulation.
	g.Schedules = []string{"bogus"}
	if _, err := g.Expand(); err == nil {
		t.Error("unknown schedule accepted by Expand")
	}
}

// TestScheduleSweepRuns sweeps one configuration across all four schedules
// and checks every scenario simulates, that schedules resolve distinct
// deployment families, and that overlap beats or matches fifo.
func TestScheduleSweepRuns(t *testing.T) {
	g := Grid{
		Models:    []string{"vgg19"},
		Clusters:  []string{"paper"},
		Policies:  []string{"ED"},
		Schedules: sched.Names(),
		NmValues:  []int{2},
	}
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, res, err := run(context.Background(), g, scenarios, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.deployments.built.Load(); got != int64(len(sched.Names())) {
		t.Errorf("deployment resolutions = %d, want %d (one per schedule family)", got, len(sched.Names()))
	}
	byShed := map[string]float64{}
	for i := range set.Results {
		r := &set.Results[i]
		if r.Error != "" {
			t.Fatalf("%s: %s", r.Scenario.ID(), r.Error)
		}
		if r.Throughput <= 0 {
			t.Errorf("%s: throughput %g", r.Scenario.ID(), r.Throughput)
		}
		byShed[r.Scenario.Schedule] = r.Throughput
	}
	// In this sync-bound configuration every non-gpipe schedule lands at the
	// same WSP-gated rate; allow float noise but no real regression.
	if byShed[sched.NameOverlap] < byShed[sched.NameFIFO]*(1-1e-12) {
		t.Errorf("overlap %.6g < fifo %.6g in sweep", byShed[sched.NameOverlap], byShed[sched.NameFIFO])
	}
}
