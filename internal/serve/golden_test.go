package serve

import (
	"context"
	"strconv"
	"testing"

	"hetpipe/internal/core"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// TestGoldenPercentiles pins the nearest-rank latency percentiles of one
// paper-cluster serving scenario per pipeline schedule, to the full float64
// digit. Any change to the serving cost model, the admission layer, the
// router, the traffic generators, or the engine's event ordering moves these
// bytes — the golden values are the regression wall for the whole serving
// plane.
//
// The non-overlap schedules (hetpipe-fifo, gpipe, 1f1b, 2bw) share one
// timeline here: at Nm=4 over the 4-stage paper partitions their in-flight
// caps coincide and receives fold into stage time identically, so equal
// values are expected, not suspicious. The overlap schedules
// (hetpipe-overlap, interleaved at V=1) chain transfers off the compute
// path and land on their own shared timeline.
//
// Regenerate by running the scenario below per schedule and pasting
// Latency.P50/P95/P99 via strconv.FormatFloat(v, 'g', -1, 64).
func TestGoldenPercentiles(t *testing.T) {
	golden := []struct {
		schedule      string
		p50, p95, p99 string
	}{
		{"1f1b", "0.13691371496879778", "0.21087101963318577", "0.24818402968864994"},
		{"2bw", "0.13691371496879778", "0.21087101963318577", "0.24818402968864994"},
		{"gpipe", "0.13691371496879778", "0.21087101963318577", "0.24818402968864994"},
		{"hetpipe-fifo", "0.13691371496879778", "0.21087101963318577", "0.24818402968864994"},
		{"hetpipe-overlap", "0.12081618618746681", "0.20916254158692027", "0.2484368453183885"},
		{"interleaved", "0.12081618618746681", "0.20916254158692027", "0.2484368453183885"},
	}
	if len(golden) != len(sched.Names()) {
		t.Fatalf("golden table covers %d schedules, registry has %d (%v)",
			len(golden), len(sched.Names()), sched.Names())
	}
	for _, tc := range golden {
		t.Run(tc.schedule, func(t *testing.T) {
			disc, err := sched.ByName(tc.schedule)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := core.NewSystemSched(hw.Paper(), model.VGG19(), profile.Default(), 32, disc)
			if err != nil {
				t.Fatal(err)
			}
			pol, err := hw.PolicyByName("NP")
			if err != nil {
				t.Fatal(err)
			}
			alloc, err := hw.Allocate(hw.Paper(), pol)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := sys.Deploy(alloc, 4, 0, core.PlacementDefault)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := ParseTraffic("poisson:r120:n1000:seed7:crit0.2")
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), dep, tr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Served != 1000 {
				t.Fatalf("served %d of 1000", res.Served)
			}
			g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
			if got := g(res.Latency.P50); got != tc.p50 {
				t.Errorf("p50 = %s, want %s", got, tc.p50)
			}
			if got := g(res.Latency.P95); got != tc.p95 {
				t.Errorf("p95 = %s, want %s", got, tc.p95)
			}
			if got := g(res.Latency.P99); got != tc.p99 {
				t.Errorf("p99 = %s, want %s", got, tc.p99)
			}
		})
	}
}
