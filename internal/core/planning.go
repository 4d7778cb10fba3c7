package core

import (
	"errors"
	"fmt"
	"slices"

	"hetpipe/internal/hw"
	"hetpipe/internal/partition"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/profile"
	"hetpipe/internal/sim"
)

// planning is the context of one Deploy (or one direct SoloVW call): it makes
// each distinct plan and each distinct solo run once.
//
// A plan and its solo simulation depend on a virtual worker only through its
// class — the GPU type of every stage and the kind of link into it — so
// workers of one class (ED's four VRGQ workers, say) share one partition and
// one simulation per Nm, and Deploy's per-worker pass finds what the Nm
// search already made. The context owns everything mutable: one partitioner
// (DP scratch), the solo runs' kit, the memo. Nothing outlives it but the cost
// tables, which the System shares because they are immutable, and the kit,
// which it hands back to the System for the next context.
type planning struct {
	sys *System
	pt  *partition.Partitioner
	kit *soloKit

	classes [][]stageClass
	sig     []stageClass // class's scratch
	memo    map[soloKey]*soloPlan

	soloWindows, prunedNm, soloMB, skippedMB int // Planning's counters the partitioner does not keep
}

// Planning counts the work one Deploy's planning context did. The counts are
// a function of the System and the allocation alone, so they repeat exactly
// from run to run.
type Planning struct {
	// Solves is the Partition calls that ran the dynamic program, Carried the
	// calls that reused the previous Nm's cuts instead (partition.Stats), and
	// Infeasible the solves that found no memory-feasible split: the probe
	// that ends each class's upward Nm scan.
	Solves, Carried, Infeasible int
	// Priced is the cuts the solves examined past the memory check
	// (partition.Stats): the DP's work.
	Priced int
	// SoloWindows is the solo runs planning simulated: one per (class, Nm)
	// the Nm search did not prune, or one per class when Nm was given.
	SoloWindows int
	// PrunedNm is the Nm values the search skipped without simulating because
	// their round-trip bound (pipeline.ThroughputBound) could not reach the
	// incumbent.
	PrunedNm int
	// SoloMB is the minibatches the solo runs' windows cover, and SkippedMB
	// how many of them the runs jumped over instead of simulating, once their
	// state repeated (pipeline.Runner.Skipped).
	SoloMB, SkippedMB int
}

// stats reports what the context has done so far.
func (pc *planning) stats() Planning {
	ps := pc.pt.Stats()
	return Planning{
		Solves: ps.Solves, Carried: ps.Carried, Infeasible: ps.Infeasible, Priced: ps.Priced,
		SoloWindows: pc.soloWindows, PrunedNm: pc.prunedNm,
		SoloMB: pc.soloMB, SkippedMB: pc.skippedMB,
	}
}

// stageClass is one stage's part of a virtual worker's class: its GPU type
// and the link from the previous stage's GPU — for stage 0 the wrap link
// from the last stage, which interleaved plans cross between chunks.
type stageClass struct {
	gpu  *hw.GPUType
	link hw.LinkKind
}

type soloKey struct{ class, nm int }

// soloPlan is what the context knows about one (class, Nm).
type soloPlan struct {
	// plan is bound to the GPUs of the first worker that asked; workers get
	// their own copy through Rebind. err is Partition's.
	plan *partition.Plan
	err  error
	// The solo run over the standard window, once simulated.
	simulated  bool
	throughput float64
	simErr     error
}

// tables returns the System's shared cost tables, (re)building them when
// there are none yet or an exported field they depend on was reassigned.
func (s *System) tables() *profile.Tables {
	s.tabMu.Lock()
	defer s.tabMu.Unlock()
	if s.tab == nil || !s.tab.Valid(s.Perf, s.Model, s.Batch) {
		s.tab = profile.NewTables(s.Perf, s.Model, s.Batch)
	}
	return s.tab
}

// soloKit is the warm scratch of a context's solo runs: one engine, and the
// Runner that keeps their pipeline and fast-forwards them. Nothing a run
// returns points into it.
type soloKit struct {
	eng *sim.Engine
	run pipeline.Runner
}

func (s *System) newPlanning() *planning {
	pc := &planning{
		sys:  s,
		pt:   partition.NewShared(s.tables(), s.schedule(), s.Interleave),
		memo: make(map[soloKey]*soloPlan),
	}
	s.kitMu.Lock()
	if n := len(s.kits); n > 0 {
		pc.kit, s.kits = s.kits[n-1], s.kits[:n-1]
	}
	s.kitMu.Unlock()
	if pc.kit == nil {
		pc.kit = &soloKit{eng: sim.New()}
	}
	return pc
}

// release hands the context's kit back to its System, so that a System that
// plans again — a sweep resolving family after family — runs on a warm one.
// The context simulates nothing after it.
func (pc *planning) release() {
	s := pc.sys
	s.kitMu.Lock()
	s.kits = append(s.kits, pc.kit)
	s.kitMu.Unlock()
	pc.kit = nil
}

// class returns the index of vw's class, registering it when new. A
// deployment has a handful of classes, so a linear scan suffices.
func (pc *planning) class(vw *hw.VirtualWorker) int {
	k := len(vw.GPUs)
	pc.sig = pc.sig[:0]
	for i, g := range vw.GPUs {
		pc.sig = append(pc.sig, stageClass{g.Type, pc.sys.Cluster.LinkBetween(vw.GPUs[(i+k-1)%k], g)})
	}
	for ci, c := range pc.classes {
		if slices.Equal(c, pc.sig) {
			return ci
		}
	}
	pc.classes = append(pc.classes, slices.Clone(pc.sig))
	return len(pc.classes) - 1
}

// planned partitions the model for vw's class at nm, once. Infeasible
// outcomes are remembered too: the probe that ended a class's Nm scan is not
// retried for its other workers.
func (pc *planning) planned(vw *hw.VirtualWorker, nm int) *soloPlan {
	key := soloKey{pc.class(vw), nm}
	sp := pc.memo[key]
	if sp == nil {
		sp = &soloPlan{}
		sp.plan, sp.err = pc.pt.Partition(pc.sys.Cluster, pc.sys.Model, vw, nm, pc.sys.Batch)
		pc.memo[key] = sp
	}
	return sp
}

// soloRun is planned plus the class's solo simulation over the standard
// measurement window at nm, once.
func (pc *planning) soloRun(vw *hw.VirtualWorker, nm int) (*soloPlan, error) {
	sp := pc.planned(vw, nm)
	if sp.err != nil {
		return nil, sp.err
	}
	if !sp.simulated {
		sp.simulated = true
		pc.soloWindows++
		pc.soloMB += measureMB(nm)
		s, err := pc.kit.run.Run(pc.kit.eng, pipeline.Config{
			Plan: sp.plan, Schedule: pc.sys.Schedule,
			Minibatches: measureMB(nm), Warmup: warmupMB(nm),
		})
		pc.skippedMB += pc.kit.run.Skipped()
		sp.throughput, sp.simErr = s.Throughput, err
	}
	if sp.simErr != nil {
		return nil, sp.simErr
	}
	return sp, nil
}

// solo prepares vw for execution at nm: its class's plan re-bound to vw's
// own GPUs (a fresh copy — no two workers' plans share memory) and the
// class's solo figures.
func (pc *planning) solo(vw *hw.VirtualWorker, nm int) (*VWPlan, error) {
	sp, err := pc.soloRun(vw, nm)
	if err != nil {
		return nil, err
	}
	return &VWPlan{VW: vw, Plan: sp.plan.Rebind(vw), Throughput: sp.throughput}, nil
}

// bound sums the workers' round-trip bounds over the standard window at an
// nm every worker has a plan for, in the order chooseNm sums their simulated
// throughputs. Each bound is at least its worker's throughput bit for bit
// (pipeline.ThroughputBound), and rounding is monotone, so the sum is at least
// the simulated total too.
func (pc *planning) bound(alloc *hw.Allocation, nm int) float64 {
	total := 0.0
	for _, vw := range alloc.VWs {
		total += pipeline.ThroughputBound(pc.planned(vw, nm).plan, pc.sys.Schedule, measureMB(nm), warmupMB(nm))
	}
	return total
}

// chooseNm sweeps Nm from 1 to cap (bounded by every virtual worker's Maxm)
// and returns the value maximizing the summed standalone throughput — the
// paper's "Nm is set such that performance is maximized" rule with the
// constraint that every VW uses the same Nm.
func (pc *planning) chooseNm(alloc *hw.Allocation, cap int) (int, error) {
	if cap < 1 {
		return 0, fmt.Errorf("core: Nm cap must be >= 1, got %d", cap)
	}
	// The common Nm is bounded by the smallest Maxm, so each worker is only
	// scanned up to the limit its predecessors left. The search below needs
	// every plan in 1..limit anyway, and planning them in ascending order
	// lets each carry its predecessor's cuts (partition.Partitioner). Only a
	// memory-infeasible plan ends a scan; any other failure would recur at
	// every Nm, so it is the worker's error.
	limit := cap
	for _, vw := range alloc.VWs {
		nm := 0
		for nm < limit {
			err := pc.planned(vw, nm+1).err
			if errors.Is(err, partition.ErrInfeasible) {
				break
			}
			if err != nil {
				return 0, fmt.Errorf("core: VW %s: %w", vw.TypeString(), err)
			}
			nm++
		}
		if limit = nm; limit == 0 {
			return 0, fmt.Errorf("core: %s cannot host %s at any Nm", vw.TypeString(), pc.sys.Model.Name)
		}
	}
	// Downward, because the round-trip bound is tight at small Nm and loose
	// at large: the incumbent from the top of the range rules out most of
	// the bottom unsimulated. An Nm is skipped only when even its bound is
	// strictly below the incumbent, and equal totals replace it, so the
	// answer is the ascending search's: the lowest Nm among the best totals.
	bestNm, bestTp := 0, -1.0
	for nm := limit; nm >= 1; nm-- {
		if bestNm != 0 && pc.bound(alloc, nm) < bestTp {
			pc.prunedNm++
			continue
		}
		total := 0.0
		ok := true
		for _, vw := range alloc.VWs {
			sp, err := pc.soloRun(vw, nm)
			if err != nil {
				ok = false
				break
			}
			total += sp.throughput
		}
		if ok && total >= bestTp {
			bestNm, bestTp = nm, total
		}
	}
	if bestNm == 0 {
		return 0, fmt.Errorf("core: no feasible Nm for %s", pc.sys.Model.Name)
	}
	return bestNm, nil
}
