package core

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/trace"
)

// The stash oracle: the activation stashes a stage holds in the executor,
// counted from the trace (trace.PeakStashes), against what the partitioner
// charged it (sched.Schedule.ChunkStash). Where a schedule's claim holds,
// every stage holds exactly its charge — the claim is neither broken nor
// loose, so neither can happen unnoticed. Where it does not hold today
// (arrival order's round-trip claim, under which forwards pile up in front
// of a slower stage) the excess is pinned as data: the stages over their
// charge and, on the paper deployments, the stages whose traced peak, priced
// as the planner prices a charge, does not fit their GPU. A fix to the memory
// model shows as those numbers going to zero.

// stashExcess is one schedule's excess: over the hand plans, the stages over
// their charge; per paper deployment ("VGG-19/HD"), the stages over their
// charge and the stages over their GPU's memory, for deployments with any.
type stashExcess struct {
	hand  int
	paper map[string][2]int
}

// roundTripExcess pins the excess of the schedules whose claim is
// sched.StashRoundTrip; every other claim holds exactly. The two arrival
// schedules share their deployments' excess: overlap moves receives off the
// GPUs, not the order stages pick their work in.
var roundTripExcess = map[string]stashExcess{
	sched.NameFIFO:    {hand: 125, paper: arrivalPaperExcess},
	sched.NameOverlap: {hand: 150, paper: arrivalPaperExcess},
}

var arrivalPaperExcess = map[string][2]int{
	"VGG-19/NP": {4, 0}, "VGG-19/ED": {8, 0}, "VGG-19/HD": {12, 2},
	"ResNet-152/NP": {4, 2}, "ResNet-152/ED": {4, 4}, "ResNet-152/HD": {4, 0},
}

// stashHandPlan is pipeline's oracle hand plan: a contiguous k-stage plan
// with the given per-stage times and no partitioner.
func stashHandPlan(nm int, fwd, bwd, recv []float64) *partition.Plan {
	k := len(fwd)
	p := &partition.Plan{Batch: 1, Nm: nm, Stages: make([]partition.Stage, k)}
	for s := range p.Stages {
		c := partition.Chunk{Lo: s, Hi: s + 1, FwdTime: fwd[s], BwdTime: bwd[s]}
		if s > 0 {
			c.RecvActTime = recv[s-1]
		}
		if s < k-1 {
			c.RecvGradTime = recv[s]
		}
		p.Stages[s] = partition.Stage{
			Chunks: []partition.Chunk{c}, FwdTime: c.FwdTime, BwdTime: c.BwdTime,
			RecvActTime: c.RecvActTime, RecvGradTime: c.RecvGradTime,
		}
	}
	return p
}

// TestStashesWithinCharge runs every schedule over pipeline's oracle hand
// plans (k in [1,8], Nm in [1,16], times in [0.5, 1.5)) and over the paper
// deployments (both paper models under NP, ED and HD on the paper cluster,
// automatic Nm, an 8·Nm-minibatch solo trace per virtual worker), and holds
// each to its stash claim or its pinned excess.
func TestStashesWithinCharge(t *testing.T) {
	const trials = 60
	for _, name := range sched.Names() {
		s, _ := sched.ByName(name)
		want, pinned := roundTripExcess[name]
		if pinned != (s.Stash() == sched.StashRoundTrip) {
			t.Fatalf("%s: claim %d, pinned excess %v", name, s.Stash(), pinned)
		}
		t.Run(name, func(t *testing.T) {
			// over counts the stages of one traced run over their charge;
			// a claim that holds must be met exactly on every stage.
			over := func(id string, peaks []int, nm int) int {
				n := 0
				for st, peak := range peaks {
					charge := s.ChunkStash(st, len(peaks), nm)
					if peak > charge {
						n++
					}
					if !pinned && peak != charge {
						t.Errorf("%s: stage %d holds %d stashes, charged %d", id, st, peak, charge)
					}
				}
				return n
			}
			rng := rand.New(rand.NewSource(4))
			hand := 0
			for i := 0; i < trials; i++ {
				k, nm := 1+rng.Intn(8), 1+rng.Intn(16)
				plan := stashHandPlan(nm, randSpan(rng, k), randSpan(rng, k), randSpan(rng, k))
				tr := trace.New(k)
				if _, err := pipeline.Run(pipeline.Config{Plan: plan, Schedule: s, Minibatches: 3*nm + k, Trace: tr}); err != nil {
					t.Fatal(err)
				}
				hand += over(fmt.Sprintf("hand plan %d (k=%d nm=%d)", i, k, nm), tr.PeakStashes(), nm)
			}
			paper := map[string][2]int{}
			for _, key := range []string{"vgg19", "resnet152"} {
				m, err := model.ByName(key)
				if err != nil {
					t.Fatal(err)
				}
				for _, pol := range []hw.Policy{hw.NodePartition, hw.EqualDistribution, hw.HybridDistribution} {
					id := m.Name + "/" + pol.String()
					sys, err := NewSystemSched(hw.Paper(), m, profile.Default(), 32, s)
					if err != nil {
						t.Fatal(err)
					}
					alloc, err := hw.Allocate(sys.Cluster, pol)
					if err != nil {
						t.Fatal(err)
					}
					dep, err := sys.Deploy(alloc, 0, 0, PlacementDefault)
					if err != nil {
						t.Fatal(id, err)
					}
					tab := profile.TablesFor(sys.Perf, m, sys.Batch)
					versions := int64(s.WeightVersions())
					var stages, memory int
					for w, vp := range dep.VWs {
						tr, err := dep.SoloTrace(w, 8*dep.Nm)
						if err != nil {
							t.Fatal(err)
						}
						peaks := tr.PeakStashes()
						stages += over(fmt.Sprintf("%s worker %d (Nm=%d)", id, w, dep.Nm), peaks, dep.Nm)
						for st, peak := range peaks {
							stage := &vp.Plan.Stages[st]
							c := &stage.Chunks[0] // automatic deployments are contiguous
							if tab.ChunkBytes(c.Lo, c.Hi, versions, int64(peak))+sys.Perf.WorkspaceBytes > stage.MemoryCap {
								memory++
							}
						}
					}
					if stages > 0 || memory > 0 {
						paper[id] = [2]int{stages, memory}
					}
				}
			}
			if hand != want.hand || !maps.Equal(paper, want.paper) {
				t.Errorf("excess: %d hand-plan stages over their charge, paper deployments %v; pinned %d, %v", hand, paper, want.hand, want.paper)
			}
		})
	}
}

// randSpan returns n times in [0.5, 1.5).
func randSpan(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.5 + rng.Float64()
	}
	return out
}
