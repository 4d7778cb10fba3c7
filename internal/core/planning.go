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
//
// The memo keeps what the search needs of each (class, Nm) — the optimal
// cuts, the solo figures, the round-trip bound — and no plan: of the plans
// the search solves only the chosen Nm's are kept, so each is priced from its
// cuts where it is used. The solo runs and bounds read the kit's one scratch
// plan, re-priced for the (class, Nm) at hand; each worker's own plan is
// priced once, for that worker, by Deploy's per-worker pass (solo).
type planning struct {
	sys *System
	pt  *partition.Partitioner
	kit *soloKit

	// classes are the classes of newPlanning's workers; their signatures
	// lie end to end in sigs.
	classes []planClass
	sigs    []stageClass
	// Every class's memo row covers Nm in [lo, lo+width): the Nm search's
	// whole range, or the one Nm the caller gave.
	lo, width int

	soloWindows, prunedNm, soloMB, skippedMB int // Planning's counters the partitioner does not keep
}

// Planning counts the work one Deploy's planning context did. The counts are
// a function of the System and the allocation alone, so they repeat exactly
// from run to run.
type Planning struct {
	// Solves is the partitioner's Cuts calls that ran the dynamic program,
	// Carried the calls that reused the previous Nm's cuts instead
	// (partition.Stats), and Infeasible the solves that found no
	// memory-feasible split: the probe that ends each class's upward Nm scan.
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

// planClass is one class: its signature and its row of the memo.
type planClass struct {
	sig  []stageClass
	memo []soloPlan
}

// soloPlan is what the context knows about one (class, Nm).
type soloPlan struct {
	// cuts are the partitioner's optimal cuts once planned, in a window of
	// the context's slab; err is its error.
	planned bool
	cuts    []int
	err     error
	// The solo run over the standard window, once simulated.
	simulated  bool
	throughput float64
	simErr     error
	// The round-trip bound over the same window, once bounded.
	bounded bool
	bound   float64
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

// soloKit is the warm scratch of a context's solo runs: one engine, the
// Runner that keeps their pipeline and fast-forwards them, and the plan the
// Nm search prices each (class, Nm) into before it runs or bounds it. Nothing
// a run returns points into it.
type soloKit struct {
	eng  *sim.Engine
	run  pipeline.Runner
	plan partition.Plan
}

// newPlanning opens a planning context for the workers vws over Nm in
// [lo, lo+width): it registers their classes and sizes the memo once, for
// exactly those. The context plans for no other worker.
func (s *System) newPlanning(vws []*hw.VirtualWorker, lo, width int) *planning {
	pc := &planning{
		sys:     s,
		pt:      partition.NewShared(s.tables(), s.schedule(), s.Interleave),
		classes: make([]planClass, 0, len(vws)),
		lo:      lo,
		width:   width,
	}
	gpus, most := 0, 0
	for _, vw := range vws {
		gpus, most = gpus+len(vw.GPUs), max(most, len(vw.GPUs))
	}
	pc.sigs = make([]stageClass, 0, gpus+most)
	for _, vw := range vws {
		pc.class(vw)
	}
	// Each class's memo row and cuts come out of one slab each.
	v, cuts := max(s.Interleave, 1), 0
	for _, c := range pc.classes {
		cuts += len(c.sig)*v + 1
	}
	memo, slab := make([]soloPlan, len(pc.classes)*width), make([]int, cuts*width)
	for i := range pc.classes {
		c := &pc.classes[i]
		c.memo, memo = memo[:width:width], memo[width:]
		for e := range c.memo {
			n := len(c.sig)*v + 1
			c.memo[e].cuts, slab = slab[:n:n], slab[n:]
		}
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

// class returns the index of vw's class, registering it when new; only the
// classes newPlanning registers get a memo row. A deployment has a handful of
// classes, so a linear scan suffices. The probe is built at the tail of sigs,
// which newPlanning sizes to hold every class of its workers and one more
// probe.
func (pc *planning) class(vw *hw.VirtualWorker) int {
	lo, k := len(pc.sigs), len(vw.GPUs)
	for i, g := range vw.GPUs {
		pc.sigs = append(pc.sigs, stageClass{g.Type, pc.sys.Cluster.LinkBetween(vw.GPUs[(i+k-1)%k], g)})
	}
	sig := pc.sigs[lo:]
	for ci, c := range pc.classes {
		if slices.Equal(c.sig, sig) {
			pc.sigs = pc.sigs[:lo]
			return ci
		}
	}
	pc.classes = append(pc.classes, planClass{sig: sig[:k:k]})
	return len(pc.classes) - 1
}

// planned partitions the model for vw's class at nm, once, and keeps the
// cuts. Infeasible outcomes are remembered too: the probe that ended a
// class's Nm scan is not retried for its other workers.
func (pc *planning) planned(vw *hw.VirtualWorker, nm int) *soloPlan {
	sp := &pc.classes[pc.class(vw)].memo[nm-pc.lo]
	if !sp.planned {
		sp.planned = true
		var cuts []int
		if cuts, sp.err = pc.pt.Cuts(pc.sys.Cluster, pc.sys.Model, vw, nm, pc.sys.Batch); sp.err == nil {
			copy(sp.cuts, cuts)
		}
	}
	return sp
}

// simulate runs sp's solo window on plan, its (class, Nm) priced, once.
func (pc *planning) simulate(sp *soloPlan, plan *partition.Plan) error {
	if !sp.simulated {
		sp.simulated = true
		pc.soloWindows++
		pc.soloMB += measureMB(plan.Nm)
		s, err := pc.kit.run.Run(pc.kit.eng, pipeline.Config{
			Plan: plan, Schedule: pc.sys.Schedule,
			Minibatches: measureMB(plan.Nm), Warmup: warmupMB(plan.Nm),
		})
		pc.skippedMB += pc.kit.run.Skipped()
		sp.throughput, sp.simErr = s.Throughput, err
	}
	return sp.simErr
}

// soloRun is planned plus the class's solo simulation over the standard
// measurement window at nm, once, on the kit's scratch plan.
func (pc *planning) soloRun(vw *hw.VirtualWorker, nm int) (*soloPlan, error) {
	sp := pc.planned(vw, nm)
	if sp.err != nil {
		return nil, sp.err
	}
	if !sp.simulated {
		if _, err := pc.own(&pc.kit.plan, vw, nm); err != nil {
			return nil, err
		}
		pc.simulate(sp, &pc.kit.plan)
	}
	if sp.simErr != nil {
		return nil, sp.simErr
	}
	return sp, nil
}

// own prices vw's class's cuts at nm into plan, for vw's own GPUs and in
// plan's own storage, and validates it: a worker's plan, SoloVW's, or the
// kit's scratch that the Nm search re-prices per (class, Nm).
func (pc *planning) own(plan *partition.Plan, vw *hw.VirtualWorker, nm int) (*soloPlan, error) {
	sp := pc.planned(vw, nm)
	if sp.err != nil {
		return nil, sp.err
	}
	if err := pc.pt.Price(plan, pc.sys.Cluster, pc.sys.Model, vw, nm, pc.sys.Batch, sp.cuts); err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("partition: internal error: %v", err)
	}
	return sp, nil
}

// solo prepares vp.VW for execution at nm: its own plan (own) and the
// class's solo throughput, simulated on that plan if the class was not
// simulated at nm yet.
func (pc *planning) solo(vp *VWPlan, nm int) error {
	sp, err := pc.own(vp.Plan, vp.VW, nm)
	if err != nil {
		return err
	}
	if err := pc.simulate(sp, vp.Plan); err != nil {
		return err
	}
	vp.Throughput = sp.throughput
	return nil
}

// bound sums the workers' round-trip bounds over the standard window at an
// nm every worker has a plan for, in the order chooseNm sums their simulated
// throughputs. Each bound is at least its worker's throughput bit for bit
// (pipeline.ThroughputBound), and rounding is monotone, so the sum is at least
// the simulated total too. A class's bound is priced and computed once.
func (pc *planning) bound(alloc *hw.Allocation, nm int) (float64, error) {
	total := 0.0
	for _, vw := range alloc.VWs {
		sp := pc.planned(vw, nm)
		if !sp.bounded {
			if _, err := pc.own(&pc.kit.plan, vw, nm); err != nil {
				return 0, err
			}
			sp.bounded, sp.bound = true, pipeline.ThroughputBound(&pc.kit.plan, pc.sys.Schedule, measureMB(nm), warmupMB(nm))
		}
		total += sp.bound
	}
	return total, nil
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
		if bestNm != 0 {
			b, err := pc.bound(alloc, nm)
			if err != nil {
				return 0, err
			}
			if b < bestTp {
				pc.prunedNm++
				continue
			}
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
