package main

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"hetpipe"
	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
	"hetpipe/internal/sweep"
	"hetpipe/internal/wsp"
)

// sweepGrid is the 672-cell grid: {vgg19, resnet152} x paper x {ED, HD} x
// six schedules (+ interleaved at V=2) x faults {"", slow:w0:x2} x Nm {2, 4}
// x D {0,1,2,4,8,16}. Every cell is feasible ("mini" is left out because
// resnet152/mini/gpipe/HD/Nm4 is not). The seed shuffles each axis, which
// reorders the cells without changing the set.
func sweepGrid(seed int64, tiny bool) sweep.Grid {
	g := sweep.Grid{
		Models:      []string{"vgg19", "resnet152"},
		Clusters:    []string{"paper"},
		Policies:    []string{"ED", "HD"},
		Schedules:   append([]string(nil), hetpipe.Schedules()...),
		Interleaves: []int{1, 2},
		Faults:      []string{"", "slow:w0:x2"},
		NmValues:    []int{2, 4},
		DValues:     []int{0, 1, 2, 4, 8, 16},
	}
	if tiny {
		g.Models, g.Policies = g.Models[:1], g.Policies[:1]
		g.Schedules = []string{"hetpipe-fifo", "interleaved"}
		g.NmValues, g.DValues = []int{2}, []int{0, 4}
	}
	rng := rand.New(rand.NewSource(seed))
	shuffle(rng, g.Models)
	shuffle(rng, g.Policies)
	shuffle(rng, g.Schedules)
	shuffle(rng, g.Interleaves)
	shuffle(rng, g.Faults)
	shuffle(rng, g.NmValues)
	shuffle(rng, g.DValues)
	return g
}

func shuffle[T any](rng *rand.Rand, v []T) {
	rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
}

// sweepDigest folds every simulated statistic of every cell, in order.
func sweepDigest(set *sweep.Set) uint64 {
	h := newDigest()
	for i := range set.Results {
		r := &set.Results[i]
		h.str(r.Scenario.ID())
		h.str(r.Error)
		h.f64(r.Throughput)
		for _, t := range r.PerVW {
			h.f64(t)
		}
		h.int(r.Nm)
		h.f64(r.Waiting)
		h.f64(r.Idle)
		h.int(r.Pushes)
		h.int(r.MaxClockDistance)
		h.int(r.FaultInjections)
		h.f64(r.DegradationPct)
	}
	return h.sum()
}

// prepareSweepWarm: a round is one serial sweep.Run over the whole grid.
func prepareSweepWarm(h *harness) []roundKind {
	var g sweep.Grid
	cells := 0
	h.setupPiece(func() {
		g = sweepGrid(h.seed, h.tiny)
		if sc, err := g.Expand(); err == nil {
			cells = len(sc)
		}
	})
	var (
		set    *sweep.Set
		err    error
		want   uint64
		seeded bool
	)
	kinds := []roundKind{{
		units: cells,
		run: func() {
			h.tr.span("sweep.run", func() { set, err = sweep.Run(context.Background(), g, sweep.Options{Workers: 1}) })
		},
		check: func() {
			h.op(cells)
			if err != nil {
				h.fail("sweep-warm: %v", err)
				return
			}
			for i := range set.Results {
				if e := set.Results[i].Error; e != "" {
					h.fail("sweep-warm %s: %s", set.Results[i].Scenario.ID(), e)
				}
			}
			if d := sweepDigest(set); !seeded {
				seeded, want = true, d
			} else if d != want {
				h.fail("sweep-warm: results differ from round 0")
			}
		},
	}}
	h.warm(kinds, h.pick(warmPasses, 1))
	return kinds
}

// sweepReplay walks the scenarios the way sweep.Run does — one resolved
// deployment per (model, cluster, policy, schedule, interleave, Nm) family,
// re-bound per D, simulated on one warm engine — with a span around each
// resolution and each simulation. It returns the events fired and, per
// scenario, the simulated aggregate throughput.
func sweepReplay(tr *tracer, scenarios []sweep.Scenario, eng *sim.Engine) (events uint64, tps []float64, err error) {
	type sysKey struct {
		model, cluster, policy, schedule string
		interleave                       int
	}
	type depKey struct {
		sysKey
		nm int
	}
	type family struct {
		sys   *core.System
		alloc *hw.Allocation
	}
	systems := map[sysKey]family{}
	deps := map[depKey]*core.Deployment{}
	tps = make([]float64, len(scenarios))
	for i := range scenarios {
		sc := &scenarios[i]
		sk := sysKey{sc.Model, sc.Cluster, sc.Policy, sc.Schedule, sc.Interleave}
		dk := depKey{sk, sc.Nm}
		dep := deps[dk]
		if dep == nil {
			tr.span("sweep.resolve", func() {
				fam, ok := systems[sk]
				if !ok {
					if fam.sys, fam.alloc, err = resolveSystem(sc.Model, sc.Cluster, sc.Policy, sc.Schedule, sc.Interleave); err != nil {
						return
					}
					systems[sk] = fam
				}
				dep, err = fam.sys.Deploy(fam.alloc, sc.Nm, 0, core.PlacementDefault)
			})
			if err != nil {
				return 0, nil, err
			}
			deps[dk] = dep
		}
		tr.span("core.wsp_sim", func() {
			var plan *fault.Plan
			if plan, err = fault.Parse(sc.Faults); err != nil {
				return
			}
			var d *core.Deployment
			if d, err = dep.WithD(sc.D); err != nil {
				return
			}
			var mr *core.MultiResult
			if mr, err = d.SimulateWSPFaultsOn(context.Background(), eng, d.DefaultMinibatches(), 4*d.Nm, nil, plan, 0); err == nil {
				tps[i] = mr.Aggregate
			}
		})
		if err != nil {
			return 0, nil, err
		}
		events += eng.Fired()
	}
	return events, tps, nil
}

// resolveSystem builds the profiled System and the allocation for one
// family, as hetpipe.New and sweep's resolver both do.
func resolveSystem(modelName, cluster, policy, schedule string, interleave int) (*core.System, *hw.Allocation, error) {
	m, err := model.ByName(modelName)
	if err != nil {
		return nil, nil, err
	}
	cl, err := hw.ClusterByName(cluster)
	if err != nil {
		return nil, nil, err
	}
	s, err := sched.ByName(schedule)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystemSched(cl, m, profile.Default(), planBatch, s)
	if err != nil {
		return nil, nil, err
	}
	sys.Interleave = interleave
	pol, err := hw.PolicyByName(policy)
	if err != nil {
		return nil, nil, err
	}
	alloc, err := hw.Allocate(cl, pol)
	return sys, alloc, err
}

// simFloor measures the bare engine: 64 self-rescheduling pooled events,
// every eighth firing also schedules and cancels one. Nothing but the engine
// and a counter runs, so this is the least a simulated event can cost.
func simFloor(h *harness) float64 {
	events := h.pick(400000, 4000)
	eng := sim.New()
	sec, _ := h.probe("sim.floor", func() {
		eng.Reset()
		eng.SetStepLimit(0)
		left := events
		var id int32
		id = eng.Register(func(a, b int32, x float64) {
			if left--; left < 64 {
				return
			}
			eng.AfterID(sim.Duration(x), id, a+1, b, x)
			if a%8 == 0 {
				eng.Cancel(eng.AfterID(sim.Duration(2*x), id, a, b, x))
			}
		})
		for i := 0; i < 64; i++ {
			eng.AfterID(sim.Duration(i)*0.37, id, int32(i), 0, 1+float64(i)*0.01)
		}
		if err := eng.Run(); err != nil {
			h.fail("sim floor: %v", err)
		}
	})
	return sec / float64(eng.Fired()) * 1e9
}

// pipelineProbes times a solo 100-minibatch pipeline.RunOn on a warm engine
// under each schedule, at the BENCH_pipeline.json shape (resnet152 on VRGQ,
// Nm=4, interleaved at V=2).
func pipelineProbes(h *harness, m map[string]float64) {
	const minibatches = 100
	runs := h.pick(40, 2)
	cl := hw.Paper()
	alloc, err := hw.AllocateByTypes(cl, []string{"VRGQ"})
	if err != nil {
		h.fail("pipeline probe: %v", err)
		return
	}
	perf := profile.Default()
	eng := sim.New()
	for _, name := range sched.Names() {
		h.op(1)
		s, err := sched.ByName(name)
		if err != nil {
			h.fail("pipeline probe: %v", err)
			continue
		}
		pt := partition.NewSched(perf, s)
		if s.SupportsInterleave() {
			pt.Interleave = 2
		}
		plan, err := pt.Partition(cl, model.ResNet152(), alloc.VWs[0], 4, planBatch)
		if err != nil {
			h.fail("pipeline probe %s: %v", name, err)
			continue
		}
		cfg := pipeline.Config{Plan: plan, Cluster: cl, Perf: perf, Schedule: s, Minibatches: minibatches, Warmup: 20}
		sec, _ := h.probe("pipeline."+name, func() {
			for i := 0; i < runs; i++ {
				if _, err := pipeline.RunOn(eng, cfg); err != nil {
					h.fail("pipeline probe %s: %v", name, err)
					return
				}
			}
		})
		m["pipeline."+name+".ns_per_mb"] = sec / float64(runs*minibatches) * 1e9
	}
}

// wspProbe drives the WSP coordinator alone: four workers in lockstep,
// Nm=4, D=1; an op is one CanStart+Start or one Push.
func wspProbe(h *harness) float64 {
	waves := h.pick(20000, 200)
	params := wsp.Params{SLocal: 3, D: 1, Workers: 4}
	sec, _ := h.probe("wsp.coord", func() {
		c, err := wsp.NewCoordinator(params)
		if err != nil {
			h.fail("wsp probe: %v", err)
			return
		}
		for wave := 0; wave < waves; wave++ {
			for w := 0; w < params.Workers; w++ {
				for i := 1; i <= params.WaveSize(); i++ {
					c.Start(w, wave*params.WaveSize()+i)
				}
				c.Push(w)
			}
		}
	})
	return sec / float64(waves*params.Workers*(params.WaveSize()+1)) * 1e9
}

// faultProbe times parsing and materialising the grid's fault plan.
func faultProbe(h *harness) float64 {
	n := h.pick(5000, 50)
	sec, _ := h.probe("fault.materialize", func() {
		for i := 0; i < n; i++ {
			plan, err := fault.Parse("slow:w0:x2")
			if err == nil {
				_, err = plan.Materialize(4)
			}
			if err != nil {
				h.fail("fault probe: %v", err)
				return
			}
		}
	})
	return sec / float64(n) * 1e6
}

// sweepLedger splits a sweep.Run round into deployment resolution, WSP
// simulation and sweep's own work (expansion, scheduling, result assembly),
// then probes the layers under the simulation one by one.
func sweepLedger(h *harness, m map[string]float64) {
	g := sweepGrid(h.seed, h.tiny)
	scenarios, err := g.Expand()
	if err != nil {
		h.op(1)
		h.fail("sweep ledger: %v", err)
		return
	}
	cells := float64(len(scenarios))
	reps := h.pick(3, 1)
	var (
		set                 *sweep.Set
		run, resolve, simul []float64
		events              uint64
		tps                 []float64
	)
	eng := sim.New()
	for rep := 0; rep < reps; rep++ {
		p := h.timed(func() {
			h.tr.span("sweep.run", func() { set, err = sweep.Run(context.Background(), g, sweep.Options{Workers: 1}) })
		})
		h.op(1)
		if err != nil {
			h.fail("sweep ledger: %v", err)
			return
		}
		run = append(run, p.refSeconds())

		mark := h.tr.mark()
		p = h.timed(func() {
			h.tr.span("sweep.replay", func() { events, tps, err = sweepReplay(h.tr, scenarios, eng) })
		})
		h.op(1)
		if err != nil {
			h.fail("sweep ledger replay: %v", err)
			return
		}
		lt := h.tr.since(mark)
		resolve = append(resolve, lt.total["sweep.resolve"]*p.factor())
		simul = append(simul, lt.total["core.wsp_sim"]*p.factor())
	}
	// The seed shuffles the cell order; sort the terms so the geomean's
	// rounding does not depend on it.
	logs := make([]float64, len(set.Results))
	for i := range set.Results {
		r := &set.Results[i]
		if r.Throughput != tps[i] {
			h.fail("sweep ledger %s: replay simulated %v, sweep.Run %v", r.Scenario.ID(), tps[i], r.Throughput)
		}
		logs[i] = math.Log(r.Throughput)
	}
	sort.Float64s(logs)
	logTp := 0.0
	for _, l := range logs {
		logTp += l
	}
	tRun, tResolve, tSim := median(run), median(resolve), median(simul)
	m["sweep.resolve_share"] = tResolve / tRun
	m["sweep.sim_share"] = tSim / tRun
	m["sweep.self_share"] = (tRun - tResolve - tSim) / tRun
	m["core.wsp_sim_us_per_cell"] = tSim / cells * 1e6
	m["sim.events_per_cell"] = float64(events) / cells
	m["sim.ns_per_event"] = tSim / float64(events) * 1e9
	m["sim.floor_ns_per_event"] = simFloor(h)
	m["sim.efficiency"] = m["sim.floor_ns_per_event"] / m["sim.ns_per_event"]
	pipelineProbes(h, m)
	m["wsp.coord_ns_per_op"] = wspProbe(h)
	m["fault.materialize_us"] = faultProbe(h)
	m["core.sim_tp_geomean"] = math.Exp(logTp / cells)
}
