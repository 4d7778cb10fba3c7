package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"hetpipe/internal/data"
	"hetpipe/internal/fault"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/train"
)

var updateGoldens = flag.Bool("update", false, "rewrite golden testdata files")

// goldenFaultSpec is the fault plan every faulted golden cell runs: a 2x
// straggler on worker 0 plus a crash of the last worker early in the run,
// with a short explicit downtime so the degradation stays in a measurable
// band on every cluster.
const goldenFaultSpec = "slow:w0:x2,crash:w0:mb9:down0.05"

// wspGolden pins one WSP (or BSP, D=0) multi-worker simulation. All floats
// are shortest round-trip decimals, so comparison is bit-exact.
type wspGolden struct {
	Cluster  string `json:"cluster"`
	Model    string `json:"model"`
	Schedule string `json:"schedule"`
	D        int    `json:"d"`
	Faults   string `json:"faults,omitempty"`

	Error            string   `json:"error,omitempty"`
	Nm               int      `json:"nm,omitempty"`
	Aggregate        string   `json:"aggregate,omitempty"`
	PerVW            []string `json:"perVW,omitempty"`
	Elapsed          string   `json:"elapsed,omitempty"`
	Waiting          string   `json:"waiting,omitempty"`
	Idle             string   `json:"idle,omitempty"`
	Pushes           int      `json:"pushes,omitempty"`
	Pulls            int      `json:"pulls,omitempty"`
	MaxClockDistance int      `json:"maxClockDistance,omitempty"`
	FaultInjections  int      `json:"faultInjections,omitempty"`
	// DegradationPct is the throughput lost to the fault plan relative to
	// the fault-free twin of the same cell (faulted cells only).
	DegradationPct string `json:"degradationPct,omitempty"`
	// WeightsDigest fingerprints the final WSP weight vector of a small
	// deterministic training run driven by this deployment's simulated
	// periods and sync times (fault-free, D-bound cells only): any drift in
	// the engine's timing numerics moves the periods and with them the
	// weights.
	WeightsDigest string `json:"weightsDigest,omitempty"`
}

func gftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// digestBits folds float64 bit patterns into an FNV-1a hex digest.
func digestBits(vals []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenDeployment resolves the golden grid's deployment for one cluster and
// schedule: VGG-19, the first feasible allocation policy, Nm=2, batch 32.
func goldenDeployment(cl *hw.Cluster, s sched.Schedule, d int) (*Deployment, error) {
	sys, err := NewSystemSched(cl, model.VGG19(), profile.Default(), 32, s)
	if err != nil {
		return nil, err
	}
	var alloc *hw.Allocation
	for _, pol := range hw.Policies() {
		if a, err := hw.Allocate(cl, pol); err == nil {
			alloc = a
			break
		}
	}
	if alloc == nil {
		return nil, fmt.Errorf("no feasible allocation policy")
	}
	return sys.Deploy(alloc, 2, d, PlacementDefault)
}

// weightsDigest runs a small deterministic logistic-regression WSP training
// job of the deployment's N, Nm and D, and fingerprints the final global
// weight vector.
func weightsDigest(dep *Deployment) (string, error) {
	ds, err := data.SyntheticClassification(7, 256, 8, 3, 0.1)
	if err != nil {
		return "", err
	}
	trainSet, evalSet, err := ds.Split(0.75)
	if err != nil {
		return "", err
	}
	task, err := train.NewLogReg(trainSet, evalSet, 16)
	if err != nil {
		return "", err
	}
	n := len(dep.VWs)
	stats, err := train.RunWSP(train.WSPConfig{
		Task: task, Workers: n, SLocal: dep.SLocal(), D: dep.D, LR: 0.1,
		MaxMinibatches: 12, EvalEvery: 12 * n,
	})
	if err != nil {
		return "", err
	}
	return digestBits(stats.FinalWeights), nil
}

// goldenWSPRuns simulates the golden grid: every schedule on every catalog
// cluster, at D=0 (the BSP-like bound) and D=4 (WSP proper), fault-free and
// under goldenFaultSpec.
func goldenWSPRuns(t *testing.T) []wspGolden {
	t.Helper()
	plan, err := fault.Parse(goldenFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	var out []wspGolden
	for _, ci := range hw.ClusterCatalog() {
		cl, err := hw.ClusterByName(ci.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range sched.Names() {
			s, err := sched.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []int{0, 4} {
				var base float64
				for _, spec := range []string{"", goldenFaultSpec} {
					g := wspGolden{Cluster: ci.Name, Model: "vgg19", Schedule: name, D: d, Faults: spec}
					dep, err := goldenDeployment(cl, s, d)
					if err != nil {
						g.Error = err.Error()
						out = append(out, g)
						continue
					}
					fp := plan
					if spec == "" {
						fp = nil
					}
					mr, err := dep.Simulate(context.Background(), SimOptions{Warmup: 2 * dep.Nm, Faults: fp, CheckpointEvery: 2})
					if err != nil {
						g.Error = err.Error()
						out = append(out, g)
						continue
					}
					g.Nm = dep.Nm
					g.Aggregate = gftoa(mr.Aggregate)
					for _, v := range mr.PerVW {
						g.PerVW = append(g.PerVW, gftoa(v))
					}
					g.Elapsed = gftoa(mr.Elapsed)
					g.Waiting = gftoa(mr.Waiting)
					g.Idle = gftoa(mr.Idle)
					g.Pushes = mr.Pushes
					g.Pulls = mr.Pulls
					g.MaxClockDistance = mr.MaxClockDistance
					g.FaultInjections = mr.FaultInjections
					if spec == "" {
						base = mr.Aggregate
						if wd, err := weightsDigest(dep); err != nil {
							g.Error = err.Error()
						} else {
							g.WeightsDigest = wd
						}
					} else if base > 0 {
						g.DegradationPct = gftoa((base - mr.Aggregate) / base * 100)
					}
					out = append(out, g)
				}
			}
		}
	}
	return out
}

// TestWSPGoldens pins the full WSP simulation surface — aggregate and per-VW
// throughput, waiting/idle decomposition, protocol counters, fault-plan
// degradation, and the final weights of a deployment-timed training run — to
// the values the pre-refactor container/heap engine produced, for every
// schedule x catalog cluster x {BSP (D=0), WSP (D=4)} x {fault-free,
// goldenFaultSpec}. The pooled indexed engine must reproduce every cell bit
// for bit.
func TestWSPGoldens(t *testing.T) {
	got := goldenWSPRuns(t)
	path := filepath.Join("testdata", "wsp_goldens.json")
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want []wspGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden entries = %d, want %d (regenerate with -update only for deliberate physics changes)", len(got), len(want))
	}
	for i := range want {
		if !goldenEqual(got[i], want[i]) {
			t.Errorf("golden mismatch for %s/%s/d%d/%q:\n  got  %+v\n  want %+v",
				want[i].Cluster, want[i].Schedule, want[i].D, want[i].Faults, got[i], want[i])
		}
	}
}

// goldenEqual compares two cells through their canonical JSON forms
// (wspGolden is not comparable with == because of the PerVW slice).
func goldenEqual(a, b wspGolden) bool {
	aj, errA := json.Marshal(a)
	bj, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(aj) == string(bj)
}
