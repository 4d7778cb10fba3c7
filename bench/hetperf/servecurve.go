package main

import (
	"context"
	"fmt"
	"math/rand"

	"hetpipe"
	"hetpipe/internal/core"
	"hetpipe/internal/serve"
	"hetpipe/internal/sim"
)

// serveSpecs are the five traffic shapes: three points of the open-loop
// Poisson curve, one closed loop, one bursty trace. Every spec's generator
// seed comes from the run seed.
func serveSpecs(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	shapes := []string{
		"poisson:r100", "poisson:r160", "poisson:r220",
		"closed:u32:t0.05", "bursty:r120:x3:on1:off3",
	}
	out := make([]string, len(shapes))
	for i, s := range shapes {
		out[i] = fmt.Sprintf("%s:n%d:seed%d", s, n, 1+rng.Int63n(1<<31))
	}
	return out
}

func serveDeployment(spec string) (*hetpipe.Deployment, error) {
	return hetpipe.New(hetpipe.WithModel("vgg19"), hetpipe.WithPolicy("ED"), hetpipe.WithNm(4), hetpipe.WithTraffic(spec))
}

// prepareServeCurve resolves the five deployments once (set-up); a round
// calls Deployment.Serve on each.
func prepareServeCurve(h *harness) []roundKind {
	n := h.pick(40000, 400)
	var specs []string
	h.setupPiece(func() { specs = serveSpecs(h.seed, n) })
	deps := make([]*hetpipe.Deployment, len(specs))
	for i, s := range specs {
		h.setupPiece(func() {
			var err error
			if deps[i], err = serveDeployment(s); err != nil {
				h.fail("serve-curve New(%s): %v", s, err)
			}
		})
	}
	res := make([]*hetpipe.ServeResult, len(deps))
	errs := make([]error, len(deps))
	want := make([][3]float64, len(deps))
	seeded := false
	kinds := []roundKind{{
		units: n * len(deps),
		run: func() {
			for i, d := range deps {
				h.tr.span("hetpipe.serve", func() { res[i], errs[i] = d.Serve(context.Background()) })
			}
		},
		check: func() {
			h.op(n * len(deps))
			for i, r := range res {
				if errs[i] != nil {
					h.fail("serve-curve %s: %v", specs[i], errs[i])
					continue
				}
				if r.Served != r.Offered || r.Offered != n {
					h.fail("serve-curve %s: served %d of %d", specs[i], r.Served, r.Offered)
				}
				got := [3]float64{r.Latency.P50, r.Latency.P95, r.Latency.P99}
				if !seeded {
					want[i] = got
				} else if got != want[i] {
					h.fail("serve-curve %s: percentiles differ from round 0", specs[i])
				}
			}
			seeded = true
			clear(res) // 5 x 40000-entry traces; do not carry them into the next round's heap
		},
	}}
	h.warm(kinds, h.pick(warmPasses, 1))
	return kinds
}

// serveLedger takes Deployment.Serve apart: spec parsing, arrival
// generation, the serving simulation itself on a warm and on a fresh engine,
// and what the public wrapper adds on top by copying the result.
func serveLedger(h *harness, m map[string]float64) {
	n := h.pick(40000, 400)
	specs := serveSpecs(h.seed, n)
	reqs := float64(n * len(specs))
	h.op(1)
	sys, alloc, err := resolveSystem("vgg19", "paper", "ED", "hetpipe-fifo", 0)
	var dep *core.Deployment
	if err == nil {
		dep, err = sys.Deploy(alloc, 4, 0, core.PlacementDefault)
	}
	if err != nil {
		h.fail("serve ledger: %v", err)
		return
	}
	pubs := make([]*hetpipe.Deployment, len(specs))
	traffics := make([]*serve.Traffic, len(specs))
	for i, s := range specs {
		if pubs[i], err = serveDeployment(s); err == nil {
			traffics[i], err = serve.ParseTraffic(s)
		}
		if err != nil {
			h.fail("serve ledger %s: %v", s, err)
			return
		}
	}

	parses := h.pick(400, 4)
	parseSec, _ := h.probe("serve.parse", func() {
		for i := 0; i < parses; i++ {
			for _, s := range specs {
				if _, err := serve.ParseTraffic(s); err != nil {
					h.fail("serve ledger %s: %v", s, err)
					return
				}
			}
		}
	})
	open := 0
	arriveSec, _ := h.probe("serve.arrivals", func() {
		open = 0
		for _, t := range traffics {
			if t.Open() {
				open += len(t.Arrivals())
			}
		}
	})

	var warm, fresh, public, allocs []float64
	var events uint64
	var results []*serve.Result
	eng := sim.New()
	for rep := 0; rep < h.pick(3, 1); rep++ {
		events, results = 0, results[:0]
		p := h.timed(func() {
			for _, t := range traffics {
				h.tr.span("serve.run_on", func() {
					r, err := serve.RunOn(context.Background(), eng, dep, t, serve.Options{})
					if err != nil {
						h.fail("serve ledger RunOn %s: %v", t, err)
						return
					}
					events += eng.Fired()
					results = append(results, r)
				})
			}
		})
		warm = append(warm, p.refSeconds())
		allocs = append(allocs, float64(p.mallocs)/float64(len(traffics)))
		p = h.timed(func() {
			for _, t := range traffics {
				h.tr.span("serve.run", func() {
					if _, err := serve.Run(context.Background(), dep, t, serve.Options{}); err != nil {
						h.fail("serve ledger Run %s: %v", t, err)
					}
				})
			}
		})
		fresh = append(fresh, p.refSeconds())
		p = h.timed(func() {
			for i, d := range pubs {
				h.tr.span("hetpipe.serve", func() {
					r, err := d.Serve(context.Background())
					if err != nil {
						h.fail("serve ledger Serve %s: %v", specs[i], err)
					} else if len(results) == len(pubs) && r.Latency.P99 != results[i].Latency.P99 {
						h.fail("serve ledger %s: Serve p99 %v, serve.RunOn %v", specs[i], r.Latency.P99, results[i].Latency.P99)
					}
				})
			}
		})
		public = append(public, p.refSeconds())
	}
	if len(results) != len(specs) {
		return
	}
	fill := 0.0
	for _, r := range results {
		fill += r.MeanBatchFill / float64(len(results))
	}
	m["serve.parse_us"] = parseSec / float64(parses*len(specs)) * 1e6
	m["serve.arrivals_ns_per_req"] = arriveSec / float64(open) * 1e9
	m["serve.run_ns_per_req"] = median(warm) / reqs * 1e9
	m["serve.setup_allocs_per_run"] = median(allocs)
	m["hetpipe.serve_copy_share"] = (median(public) - median(fresh)) / median(public)
	m["sim.events_per_req"] = float64(events) / reqs
	m["serve.sim_p99_ms"] = results[1].Latency.P99 * 1e3 // poisson:r160
	m["serve.mean_batch_fill"] = fill
}
