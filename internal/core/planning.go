package core

import (
	"fmt"
	"slices"

	"hetpipe/internal/hw"
	"hetpipe/internal/partition"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/profile"
	"hetpipe/internal/sim"
)

// planning is the context of one Deploy (or one direct ChooseNm or SoloVW
// call): it makes each distinct plan and each distinct solo run once.
//
// A plan and its solo simulation depend on a virtual worker only through its
// class — the GPU type of every stage and the kind of link into it — so
// workers of one class (ED's four VRGQ workers, say) share one partition and
// one simulation per Nm, and Deploy's per-worker pass finds what the Nm
// search already made. The context owns everything mutable: one partitioner
// (DP scratch), one warm engine, the memo. Nothing outlives it but the cost
// tables, which the System shares because they are immutable.
type planning struct {
	sys *System
	pt  *partition.Partitioner
	eng *sim.Engine

	classes [][]stageClass
	sig     []stageClass // class's scratch
	memo    map[soloKey]*soloPlan
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
	simulated           bool
	throughput, maxUtil float64
	simErr              error
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

func (s *System) newPlanning() *planning {
	return &planning{
		sys:  s,
		pt:   partition.NewShared(s.tables(), s.schedule(), s.Interleave),
		eng:  sim.New(),
		memo: make(map[soloKey]*soloPlan),
	}
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
// outcomes are remembered too: a class's failed MaxNm probes are not retried
// for its other workers.
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

// simulate runs one solo pipeline on the context's warm engine.
func (pc *planning) simulate(plan *partition.Plan, minibatches, warmup int) (*pipeline.Result, error) {
	return pipeline.RunOn(pc.eng, pipeline.Config{
		Plan: plan, Schedule: pc.sys.Schedule,
		Minibatches: minibatches, Warmup: warmup,
	})
}

// soloRun is planned plus the class's solo simulation over the standard
// measurement window, once.
func (pc *planning) soloRun(vw *hw.VirtualWorker, nm int) (*soloPlan, error) {
	sp := pc.planned(vw, nm)
	if sp.err != nil {
		return nil, sp.err
	}
	if !sp.simulated {
		sp.simulated = true
		res, err := pc.simulate(sp.plan, measureMB(nm), warmupMB(nm))
		if err != nil {
			sp.simErr = err
		} else {
			sp.throughput, sp.maxUtil = res.Throughput, res.MaxGPUUtil
		}
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
	return pc.sys.vwPlan(vw, sp.plan.Rebind(vw), sp.throughput, sp.maxUtil), nil
}

// chooseNm is System.ChooseNm inside this context.
func (pc *planning) chooseNm(alloc *hw.Allocation, cap int) (int, error) {
	// The common Nm is bounded by the smallest Maxm, so each worker is only
	// searched up to the limit its predecessors left.
	limit := cap
	for _, vw := range alloc.VWs {
		limit = partition.MaxFeasible(limit, func(nm int) bool { return pc.planned(vw, nm).err == nil })
		if limit == 0 {
			return 0, fmt.Errorf("core: %s cannot host %s at any Nm", vw.TypeString(), pc.sys.Model.Name)
		}
	}
	bestNm, bestTp := 0, -1.0
	for nm := 1; nm <= limit; nm++ {
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
		if ok && total > bestTp {
			bestNm, bestTp = nm, total
		}
	}
	if bestNm == 0 {
		return 0, fmt.Errorf("core: no feasible Nm for %s", pc.sys.Model.Name)
	}
	return bestNm, nil
}
