package hetpipe

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// simulate resolves a deployment and runs the co-simulation once.
func simulate(t *testing.T, opts ...Option) (*Deployment, *Result) {
	t.Helper()
	dep, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return dep, res
}

func TestRunEDLocal(t *testing.T) {
	_, res := simulate(t, WithModel("vgg19"), WithPolicy("ED"), WithLocalPlacement(true))
	if res.Throughput <= 0 {
		t.Fatal("non-positive throughput")
	}
	if len(res.PerVW) != 4 || len(res.VirtualWorkers) != 4 || len(res.Plans) != 4 {
		t.Fatalf("expected 4 VWs, got %d/%d/%d", len(res.PerVW), len(res.VirtualWorkers), len(res.Plans))
	}
	for _, vw := range res.VirtualWorkers {
		if vw != "VRGQ" {
			t.Errorf("ED VW = %s, want VRGQ", vw)
		}
	}
	if res.Nm < 1 {
		t.Errorf("Nm = %d", res.Nm)
	}
	// sglobal = (D+1)(slocal+1) + slocal - 1 with D=0.
	if want := res.Nm + res.Nm - 2; res.SGlobal != want {
		t.Errorf("sglobal = %d, want %d", res.SGlobal, want)
	}
}

func TestRunWithSpecs(t *testing.T) {
	_, res := simulate(t, WithModel("resnet152"), WithSpecs("VR", "VR"), WithNm(2))
	if len(res.PerVW) != 2 {
		t.Fatalf("VWs = %d, want 2", len(res.PerVW))
	}
	if res.Nm != 2 {
		t.Errorf("Nm = %d, want 2 (forced)", res.Nm)
	}
}

// TestRunLiveBackend runs one resolved deployment on both backends: the
// simulation's report and the live run's summary come from the same plans
// (TestTrainLiveWithObserver checks the live counts themselves).
func TestRunLiveBackend(t *testing.T) {
	dep, res := simulate(t, WithModel("vgg19"), WithPolicy("ED"), WithD(1), WithNm(2), WithMinibatchesPerVW(16))
	live, err := dep.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if live.WallSeconds <= 0 {
		t.Error("live run reported no wall time")
	}
	if res.Throughput <= 0 || len(res.Plans) != 4 || res.Pushes != live.Pushes || res.Pulls != live.Pulls {
		t.Errorf("simulated twin: throughput %g, %d plans, %d/%d pushes/pulls against %d/%d live",
			res.Throughput, len(res.Plans), res.Pushes, res.Pulls, live.Pushes, live.Pulls)
	}
}

// TestRunValidation: what New refuses beyond the sentinel table's rows.
func TestRunValidation(t *testing.T) {
	if _, err := New(WithModel("vgg19"), WithPolicy("NP"), WithLocalPlacement(true)); err == nil {
		t.Error("local placement under NP accepted")
	}
	// Nm 0 means "choose one"; a negative Nm is the caller's mistake, not a
	// virtual worker's.
	const wantNm = "core: Nm must be >= 0 (0 = auto), got -1"
	if _, err := New(WithModel("vgg19"), WithPolicy("ED"), WithNm(-1)); err == nil || err.Error() != wantNm {
		t.Errorf("WithNm(-1): error %v, want %q", err, wantNm)
	}
	if _, err := New(WithModel("vgg19"), WithPolicy("ED"), WithChunks(-1)); err == nil {
		t.Error("WithChunks(-1) accepted")
	}
}

func TestHorovodBaseline(t *testing.T) {
	b, err := Horovod("resnet152", "", 32)
	if err != nil {
		t.Fatal(err)
	}
	if b.Workers != 12 || len(b.Excluded) != 4 {
		t.Errorf("ResNet-152 Horovod workers=%d excluded=%d, want 12/4", b.Workers, len(b.Excluded))
	}
	if b.Throughput <= 0 {
		t.Error("non-positive baseline throughput")
	}
}

func TestPlanView(t *testing.T) {
	dep, err := New(WithModel("vgg19"), WithSpecs("VRGQ"), WithNm(4))
	if err != nil {
		t.Fatal(err)
	}
	plan := dep.Plans()[0]
	if len(plan.Stages) != 4 {
		t.Fatalf("stages = %d, want 4", len(plan.Stages))
	}
	last := 0
	for i, st := range plan.Stages {
		if st.Layers[0] != last {
			t.Errorf("stage %d starts at %d, want %d", i, st.Layers[0], last)
		}
		last = st.Layers[1]
		if st.MemoryBytes > st.MemoryCap {
			t.Errorf("stage %d memory over cap", i)
		}
	}
	if plan.Bottleneck <= 0 {
		t.Error("zero bottleneck")
	}
}

// TestConcurrentNewPlansAgree: concurrent New calls share the process's zoo
// models and cost tables, built by whichever call comes first — at a batch
// size no other test plans, so here they race to build them — and every call
// must still plan what a lone New plans afterwards. Run under -race it also
// checks the sharing itself.
func TestConcurrentNewPlansAgree(t *testing.T) {
	models := []string{"resnet152", "vgg19"}
	const batch = 29
	got := make([][]*PlanView, 2*runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dep, err := New(WithModel(models[g%len(models)]), WithPolicy("ED"), WithBatch(batch))
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = dep.Plans()
		}()
	}
	wg.Wait()
	for i, m := range models {
		dep, err := New(WithModel(m), WithPolicy("ED"), WithBatch(batch))
		if err != nil {
			t.Fatal(err)
		}
		want := dep.Plans()
		for g := i; g < len(got); g += len(models) {
			if !reflect.DeepEqual(got[g], want) {
				t.Errorf("goroutine %d: %s plans differ from a lone New's", g, m)
			}
		}
	}
}

func TestGanttOutput(t *testing.T) {
	dep, err := New(WithModel("vgg19"), WithSpecs("VVVV"), WithNm(4))
	if err != nil {
		t.Fatal(err)
	}
	g, err := dep.Gantt(0, 10, 80)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g, "GPU1") || !strings.Contains(g, "GPU4") {
		t.Errorf("gantt missing stage rows:\n%s", g)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	if cat := ExperimentCatalog(); len(cat) < 10 {
		t.Fatalf("experiments = %d, want >= 10", len(cat))
	}
	out, err := RunExperiment(t.Context(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "TITAN V") {
		t.Error("table1 output missing GPU names")
	}
	if _, err := RunExperiment(t.Context(), "unknown"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
