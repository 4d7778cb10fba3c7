package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/profile"
	"hetpipe/internal/sim"
	"hetpipe/internal/trace"
)

func sys(t testing.TB, m *model.Model) *System {
	t.Helper()
	s, err := NewSystemSched(hw.Paper(), m, profile.Default(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func deploy(t testing.TB, m *model.Model, policy hw.Policy, nm, d int, pl PlacementKind) *Deployment {
	t.Helper()
	s := sys(t, m)
	alloc, err := hw.Allocate(s.Cluster, policy)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := s.Deploy(alloc, nm, d, pl)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestSoloVWMatchesPipeline: SoloVW runs on the System's warm planning kit,
// which a Deploy has just used for other windows, and must still report
// exactly what a cold run of the same plan and window on a fresh engine does.
func TestSoloVWMatchesPipeline(t *testing.T) {
	s := sys(t, model.VGG19())
	alloc, err := hw.AllocateByTypes(s.Cluster, []string{"VVVV"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(alloc, 0, 0, PlacementDefault); err != nil {
		t.Fatal(err)
	}
	vp, sum, err := s.SoloVW(alloc.VWs[0], 4, 60, 20)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pipeline.RunOn(sim.New(), pipeline.Config{Plan: vp.Plan, Schedule: s.Schedule, Minibatches: 60, Warmup: 20})
	if err != nil {
		t.Fatal(err)
	}
	if sum != cold.Summary {
		t.Errorf("SoloVW after other windows: %+v, a cold run %+v", sum, cold.Summary)
	}
	if vp.Throughput != sum.Throughput {
		t.Errorf("plan throughput %v != summary %v", vp.Throughput, sum.Throughput)
	}
	if vp.Throughput <= 0 || sum.MaxGPUUtil <= 0 || sum.MaxGPUUtil > 1 {
		t.Errorf("bad solo figures: throughput %v, max utilization %v", vp.Throughput, sum.MaxGPUUtil)
	}
}

// TestSoloTrace pins SoloTrace's default window, 4*Nm completions, and its
// out-of-range error.
func TestSoloTrace(t *testing.T) {
	dep := deploy(t, model.VGG19(), hw.EqualDistribution, 3, 0, PlacementDefault)
	tr, err := dep.SoloTrace(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	completions := 0
	for _, sp := range tr.Spans {
		if sp.Stage == 0 && sp.Kind == trace.Backward {
			completions++
		}
	}
	if completions != 4*dep.Nm {
		t.Errorf("default window traced %d completions, want 4*Nm = %d", completions, 4*dep.Nm)
	}
	for _, vw := range []int{-1, len(dep.VWs)} {
		want := fmt.Sprintf("hetpipe: virtual worker %d out of range [0,4)", vw)
		if _, err := dep.SoloTrace(vw, 0); err == nil || err.Error() != want {
			t.Errorf("SoloTrace(%d): error %v, want %q", vw, err, want)
		}
	}
}

func TestChooseNmPicksBestThroughput(t *testing.T) {
	s := sys(t, model.ResNet152())
	alloc, err := hw.Allocate(s.Cluster, hw.EqualDistribution)
	if err != nil {
		t.Fatal(err)
	}
	pc := s.newPlanning(alloc.VWs, 1, autoNmCap)
	defer pc.release()
	nm, err := pc.chooseNm(alloc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if nm < 2 {
		t.Errorf("chosen Nm = %d, expected pipelining to pay off (>= 2)", nm)
	}
	// A cap that admits no Nm is the caller's mistake, not the model's size.
	for _, cap := range []int{0, -3} {
		if _, err := pc.chooseNm(alloc, cap); err == nil || !strings.Contains(err.Error(), "cap must be >= 1") {
			t.Errorf("chooseNm with cap %d: error %v, want one saying the cap must be >= 1", cap, err)
		}
	}
}

func TestDeployBuildsAllVWs(t *testing.T) {
	dep := deploy(t, model.VGG19(), hw.EqualDistribution, 4, 0, PlacementLocal)
	if len(dep.VWs) != 4 {
		t.Fatalf("VWs = %d, want 4", len(dep.VWs))
	}
	for i, vp := range dep.VWs {
		if vp.Plan == nil || vp.Throughput <= 0 {
			t.Errorf("VW %d incomplete: %+v", i, vp)
		}
	}
	// ED gives identical VWs, so identical sync costs.
	for w := 1; w < 4; w++ {
		if dep.PushTime[w] != dep.PushTime[0] {
			t.Errorf("ED push times differ: %v", dep.PushTime)
		}
	}
}

func TestLocalPlacementRequiresED(t *testing.T) {
	s := sys(t, model.VGG19())
	alloc, err := hw.Allocate(s.Cluster, hw.NodePartition)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(alloc, 2, 0, PlacementLocal); err == nil {
		t.Error("local placement under NP should fail (stages map to different nodes per VW)")
	}
}

func TestLocalPlacementCheaperThanDefault(t *testing.T) {
	local := deploy(t, model.VGG19(), hw.EqualDistribution, 4, 0, PlacementLocal)
	def := deploy(t, model.VGG19(), hw.EqualDistribution, 4, 0, PlacementDefault)
	for w := range local.PushTime {
		if local.PushTime[w] >= def.PushTime[w] {
			t.Errorf("VW %d: local push %v >= default %v", w, local.PushTime[w], def.PushTime[w])
		}
	}
}

func TestSimulateWSPBasics(t *testing.T) {
	dep := deploy(t, model.ResNet152(), hw.EqualDistribution, 4, 0, PlacementLocal)
	res, err := dep.Simulate(context.Background(), SimOptions{Minibatches: 80, Warmup: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerVW) != 4 {
		t.Fatalf("per-VW results = %d, want 4", len(res.PerVW))
	}
	if res.Aggregate <= 0 {
		t.Fatal("aggregate throughput must be positive")
	}
	// ED: all VWs identical, so throughputs should be close.
	for _, tp := range res.PerVW {
		if tp < res.PerVW[0]*0.9 || tp > res.PerVW[0]*1.1 {
			t.Errorf("ED VW throughputs diverge: %v", res.PerVW)
		}
	}
	if res.Pushes == 0 {
		t.Error("no pushes recorded")
	}
	if res.MaxClockDistance > 1 {
		t.Errorf("D=0: clock distance %d > 1", res.MaxClockDistance)
	}
}

func TestSimulateWSPStragglerNP(t *testing.T) {
	// NP: heterogeneous VWs. With D=0 the fast VWs wait for the slow one;
	// aggregate sits near 4x the slowest VW's rate.
	dep := deploy(t, model.VGG19(), hw.NodePartition, 2, 0, PlacementDefault)
	res, err := dep.Simulate(context.Background(), SimOptions{Minibatches: 60, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Waiting <= 0 {
		t.Error("NP at D=0 should induce waiting")
	}
	if res.Idle > res.Waiting {
		t.Errorf("idle %v exceeds waiting %v", res.Idle, res.Waiting)
	}
	slowest := res.PerVW[0]
	for _, tp := range res.PerVW {
		if tp < slowest {
			slowest = tp
		}
	}
	if res.Aggregate > 4*slowest*1.15 {
		t.Errorf("D=0 aggregate %v should be close to 4x slowest (%v)", res.Aggregate, 4*slowest)
	}
}

func TestLargerDReducesWaiting(t *testing.T) {
	d0 := deploy(t, model.VGG19(), hw.NodePartition, 2, 0, PlacementDefault)
	r0, err := d0.Simulate(context.Background(), SimOptions{Minibatches: 60, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	d4 := deploy(t, model.VGG19(), hw.NodePartition, 2, 4, PlacementDefault)
	r4, err := d4.Simulate(context.Background(), SimOptions{Minibatches: 60, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Waiting >= r0.Waiting {
		t.Errorf("waiting D=4 (%v) >= D=0 (%v)", r4.Waiting, r0.Waiting)
	}
	if r4.Aggregate < r0.Aggregate {
		t.Errorf("aggregate D=4 (%v) < D=0 (%v): larger D should not hurt throughput", r4.Aggregate, r0.Aggregate)
	}
}

func TestHorovodExcludesWhimpyGPUs(t *testing.T) {
	s := sys(t, model.ResNet152())
	hr, err := s.Horovod(nil)
	if err != nil {
		t.Fatal(err)
	}
	// ResNet-152 does not fit the 6 GB RTX 2060s: 12 workers, 4 excluded.
	if len(hr.Workers) != 12 {
		t.Errorf("workers = %d, want 12", len(hr.Workers))
	}
	if len(hr.Excluded) != 4 {
		t.Errorf("excluded = %d, want 4", len(hr.Excluded))
	}
	for _, g := range hr.Excluded {
		if g.Type.Code != 'G' {
			t.Errorf("excluded %s, expected only G GPUs", g.Name())
		}
	}
	// VGG-19 fits everywhere.
	s2 := sys(t, model.VGG19())
	hr2, err := s2.Horovod(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hr2.Workers) != 16 {
		t.Errorf("VGG-19 workers = %d, want 16", len(hr2.Workers))
	}
}

func TestHorovodStragglerPacing(t *testing.T) {
	s := sys(t, model.VGG19())
	hr, err := s.Horovod(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The slowest GPU is the Quadro P4000 at 56 img/s (anchor): compute
	// time per iteration must be 32/56.
	if want := 32.0 / 56.0; hr.ComputeTime < want*0.99 || hr.ComputeTime > want*1.01 {
		t.Errorf("compute time = %v, want %v (Q-paced)", hr.ComputeTime, want)
	}
	if hr.AllReduceTime <= 0 {
		t.Error("all-reduce time must be positive")
	}
}

func TestHorovodTrafficMatchesPaper(t *testing.T) {
	s := sys(t, model.VGG19())
	hr, err := s.Horovod(nil)
	if err != nil {
		t.Fatal(err)
	}
	mb := float64(hr.CrossNodeBytesPerWorker) / 1e6
	if mb < 500 || mb > 560 {
		t.Errorf("Horovod VGG-19 one-way volume = %.0f MB, paper quotes 515 MB", mb)
	}
}

func TestCrossNodeTrafficEDLocalVGG(t *testing.T) {
	// Section 8.3: under ED-local, VGG-19 moves ~103 MB across nodes per
	// minibatch (activations only; parameters sync locally). Our partition
	// cuts differ from the paper's, so allow a broad band — the check that
	// matters is ED-local << Horovod's 515 MB.
	dep := deploy(t, model.VGG19(), hw.EqualDistribution, 4, 0, PlacementLocal)
	mb := float64(dep.CrossNodeBytesPerMinibatch()) / 1e6
	if mb <= 0 {
		t.Fatal("ED crosses nodes; traffic must be positive")
	}
	if mb > 400 {
		t.Errorf("ED-local VGG-19 traffic = %.0f MB/minibatch, want well under Horovod's 515", mb)
	}
	// Default placement adds parameter traffic on top.
	depDef := deploy(t, model.VGG19(), hw.EqualDistribution, 4, 0, PlacementDefault)
	if depDef.CrossNodeBytesPerMinibatch() <= dep.CrossNodeBytesPerMinibatch() {
		t.Error("default placement should move more bytes than local")
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystemSched(nil, model.VGG19(), profile.Default(), 32, nil); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := NewSystemSched(hw.Paper(), model.VGG19(), profile.Default(), 0, nil); err == nil {
		t.Error("zero batch accepted")
	}
}
