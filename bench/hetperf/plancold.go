package main

import (
	"math"
	"math/rand"

	"hetpipe"
	"hetpipe/internal/core"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// planConfig is one cell of plan-cold's cross product.
type planConfig struct {
	model, cluster, policy, schedule string
	interleave                       int
}

func (c planConfig) options() []hetpipe.Option {
	return []hetpipe.Option{
		hetpipe.WithModel(c.model), hetpipe.WithCluster(c.cluster), hetpipe.WithPolicy(c.policy),
		hetpipe.WithSchedule(c.schedule), hetpipe.WithInterleave(c.interleave),
	}
}

// planConfigs is {vgg19, resnet152} x {paper, paper-x2, mini} x {NP, ED, HD}
// x six schedules (interleaved at V=2): 108 configurations, all feasible.
func planConfigs(tiny bool) []planConfig {
	models := []string{"vgg19", "resnet152"}
	clusters := []string{"paper", "paper-x2", "mini"}
	policies := []string{"NP", "ED", "HD"}
	if tiny {
		models, clusters, policies = models[:1], clusters[2:], policies[:2]
	}
	var out []planConfig
	for _, m := range models {
		for _, cl := range clusters {
			for _, p := range policies {
				for _, s := range hetpipe.Schedules() {
					c := planConfig{model: m, cluster: cl, policy: p, schedule: s}
					if s == "interleaved" {
						c.interleave = 2
					}
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// planDigest folds everything New resolved into one number, so a cold New
// that lands on different plans than the warm-up pass did is caught.
func planDigest(d *hetpipe.Deployment) uint64 {
	h := newDigest()
	h.int(d.Nm())
	h.str(d.Schedule())
	for _, p := range d.Plans() {
		h.f64(p.Bottleneck)
		for _, st := range p.Stages {
			h.str(st.GPU)
			for _, c := range st.Chunks {
				h.int(c[0])
				h.int(c[1])
			}
			h.f64(st.ExecTime)
			h.u64(uint64(st.MemoryBytes))
		}
	}
	return h.sum()
}

// preparePlanCold shuffles the configurations by seed and cuts them into
// groups; a round is one group of cold hetpipe.New calls and a pass is all
// of them. The single warm-up pass records each configuration's digest.
func preparePlanCold(h *harness) []roundKind {
	var cfgs []planConfig
	var opts [][]hetpipe.Option
	h.setupPiece(func() {
		cfgs = planConfigs(h.tiny)
		rand.New(rand.NewSource(h.seed)).Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
		for _, c := range cfgs {
			opts = append(opts, c.options())
		}
	})
	per := 6
	want := make([]uint64, len(cfgs))
	seen := make([]bool, len(cfgs))
	var kinds []roundKind
	for lo := 0; lo < len(cfgs); lo += per {
		lo, hi := lo, min(lo+per, len(cfgs))
		deps := make([]*hetpipe.Deployment, hi-lo)
		errs := make([]error, hi-lo)
		kinds = append(kinds, roundKind{
			units: hi - lo,
			run: func() {
				for i := lo; i < hi; i++ {
					h.tr.span("hetpipe.new", func() { deps[i-lo], errs[i-lo] = hetpipe.New(opts[i]...) })
				}
			},
			check: func() {
				h.op(hi - lo)
				for i := lo; i < hi; i++ {
					d, err := deps[i-lo], errs[i-lo]
					switch {
					case err != nil:
						h.fail("plan-cold %+v: %v", cfgs[i], err)
					case len(d.Plans()) == 0:
						h.fail("plan-cold %+v: no plans", cfgs[i])
					case !seen[i]:
						seen[i], want[i] = true, planDigest(d)
					case planDigest(d) != want[i]:
						h.fail("plan-cold %+v: plans differ from the warm-up pass", cfgs[i])
					}
				}
			},
		})
	}
	h.warm(kinds, 1) // a pass is 18 rounds of cold News; one seeds every digest
	return kinds
}

// planReplay is one configuration resolved three ways inside one piece: by
// the public hetpipe.New, by core's public Deploy, and by the bench's own
// replay of the sequence in deployment.go and core.Deploy that calls
// partition and pipeline directly, so each layer gets its own spans.
type planReplay struct {
	pub *hetpipe.Deployment
	dep *core.Deployment
	// nm is the replay's own Nm choice; it must equal dep.Nm or the replay
	// no longer mirrors core.ChooseNm.
	nm int
	// searchCalls counts the Partition calls MaxNm's binary search made.
	searchCalls int
	err         error
}

// maxNmCalls is how many Partition calls partition.MaxNm makes to land on
// answer m under the given cap: one feasibility probe at Nm=1, then one per
// bisection step.
func maxNmCalls(m, cap int) int {
	calls := 1
	if m == 0 {
		return calls
	}
	for lo, hi := 1, cap; lo < hi; calls++ {
		if mid := (lo + hi + 1) / 2; mid <= m {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return calls
}

const (
	planBatch = 32 // hetpipe.New's default batch
	planNmCap = 8  // core.Deploy's auto-Nm cap
)

func replayNew(tr *tracer, c planConfig) (r planReplay) {
	tr.span("hetpipe.new", func() { r.pub, r.err = hetpipe.New(c.options()...) })
	if r.err != nil {
		return r
	}
	var (
		m     *model.Model
		cl    *hw.Cluster
		alloc *hw.Allocation
		sys   *core.System
	)
	tr.span("model.build", func() { m, r.err = model.ByName(c.model) })
	if r.err != nil {
		return r
	}
	tr.span("hw.alloc", func() {
		if cl, r.err = hw.ClusterByName(c.cluster); r.err != nil {
			return
		}
		var pol hw.Policy
		if pol, r.err = hw.PolicyByName(c.policy); r.err != nil {
			return
		}
		alloc, r.err = hw.Allocate(cl, pol)
	})
	if r.err != nil {
		return r
	}
	tr.span("profile.system", func() {
		var s sched.Schedule
		if s, r.err = sched.ByName(c.schedule); r.err != nil {
			return
		}
		if sys, r.err = core.NewSystemSched(cl, m, profile.Default(), planBatch, s); r.err == nil {
			sys.Interleave = c.interleave
		}
	})
	if r.err != nil {
		return r
	}
	tr.span("core.deploy", func() { r.dep, r.err = sys.Deploy(alloc, 0, 0, core.PlacementDefault) })
	if r.err != nil {
		return r
	}
	tr.span("core.replay", func() {
		pt := &partition.Partitioner{Perf: sys.Perf, Sched: sys.Schedule, Interleave: sys.Interleave}
		// solo mirrors core.SoloVW over every virtual worker at one Nm.
		solo := func(nm int) (total float64, ok bool) {
			for _, vw := range alloc.VWs {
				var plan *partition.Plan
				var res *pipeline.Result
				var err error
				tr.span("partition.partition", func() { plan, err = pt.Partition(cl, m, vw, nm, planBatch) })
				if err != nil {
					return 0, false
				}
				tr.span("pipeline.solo", func() {
					res, err = pipeline.Run(pipeline.Config{
						Plan: plan, Cluster: cl, Perf: sys.Perf, Schedule: sys.Schedule,
						Minibatches: 40 + 10*nm, Warmup: 10 + 2*nm,
					})
				})
				if err != nil {
					return 0, false
				}
				total += res.Throughput
			}
			return total, true
		}
		limit := planNmCap
		for _, vw := range alloc.VWs {
			var mx int
			tr.span("partition.maxnm", func() { mx = pt.MaxNm(cl, m, vw, planBatch, planNmCap) })
			r.searchCalls += maxNmCalls(mx, planNmCap)
			limit = min(limit, mx)
		}
		bestTp := -1.0
		for nm := 1; nm <= limit; nm++ {
			if tp, ok := solo(nm); ok && tp > bestTp {
				r.nm, bestTp = nm, tp
			}
		}
		solo(r.nm)
	})
	return r
}

// planLedger attributes a cold New to its layers on a fixed third of the
// configurations (two schedules per model/cluster/policy row, every schedule
// covered), one piece per configuration.
func planLedger(h *harness, m map[string]float64) {
	total := map[string]float64{}
	count := map[string]int{}
	news, searchCalls := 0, 0
	logTp := 0.0
	for i, c := range planConfigs(h.tiny) {
		if (i/6+i%6)%3 != 0 {
			continue
		}
		var r planReplay
		mark := h.tr.mark()
		p := h.timed(func() { r = replayNew(h.tr, c) })
		h.op(1)
		switch {
		case r.err != nil:
			h.fail("plan ledger %+v: %v", c, r.err)
			continue
		case r.nm != r.dep.Nm || r.nm != r.pub.Nm():
			h.fail("plan ledger %+v: replay chose Nm=%d, core %d, New %d", c, r.nm, r.dep.Nm, r.pub.Nm())
		}
		lt := h.tr.since(mark)
		for name, sec := range lt.total {
			total[name] += sec * p.factor()
			count[name] += lt.count[name]
		}
		news++
		searchCalls += r.searchCalls
		tp := 0.0
		for _, vp := range r.dep.VWs {
			tp += vp.Throughput
		}
		logTp += math.Log(tp)
	}
	n := float64(max(news, 1))
	per := func(name string) float64 { return total[name] / float64(max(count[name], 1)) * 1e6 }
	whole := total["hetpipe.new"]
	part := total["partition.partition"] + total["partition.maxnm"]
	solo := total["pipeline.solo"]
	m["model.build_us"] = total["model.build"] / n * 1e6
	m["hw.alloc_us"] = total["hw.alloc"] / n * 1e6
	m["profile.system_us"] = total["profile.system"] / n * 1e6
	m["partition.partition_us"] = per("partition.partition")
	m["partition.maxnm_us"] = per("partition.maxnm")
	m["partition.calls_per_new"] = float64(count["partition.partition"]+searchCalls) / n
	m["partition.share"] = part / whole
	m["pipeline.solo_us"] = per("pipeline.solo")
	m["pipeline.solo_runs_per_new"] = float64(count["pipeline.solo"]) / n
	m["pipeline.solo_share"] = solo / whole
	m["core.deploy_self_share"] = (total["core.deploy"] - part - solo) / whole
	m["hetpipe.new_self_share"] = (whole - total["model.build"] - total["hw.alloc"] - total["profile.system"] - total["core.deploy"]) / whole
	m["core.plan_tp_geomean"] = math.Exp(logTp / n)
}
