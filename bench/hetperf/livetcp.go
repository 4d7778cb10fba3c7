package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"hetpipe"
	"hetpipe/internal/cluster"
	"hetpipe/internal/ps"
	"hetpipe/internal/tensor"
	"hetpipe/internal/train"
)

const liveD = 1

func liveDeployment(seed int64, minibatches int, tcp bool, extra ...hetpipe.Option) (*hetpipe.Deployment, error) {
	opts := []hetpipe.Option{
		hetpipe.WithModel("vgg19"), hetpipe.WithCluster("mini"), hetpipe.WithPolicy("ED"), hetpipe.WithD(liveD),
		hetpipe.WithTrainTask("mlp"), hetpipe.WithSeed(seed), hetpipe.WithTCP(tcp), hetpipe.WithMinibatchesPerVW(minibatches),
	}
	return hetpipe.New(append(opts, extra...)...)
}

// checkLive verifies one Train against the in-process twin's counts and loss.
func checkLive(h *harness, what string, got *hetpipe.LiveSummary, err error, twin *hetpipe.LiveSummary) {
	h.op(twin.Minibatches)
	switch {
	case err != nil:
		h.fail("%s: %v", what, err)
	case got.MaxClockDistance > liveD+1:
		h.fail("%s: clock distance %d exceeds D+1", what, got.MaxClockDistance)
	case got.Minibatches != twin.Minibatches || got.Pushes != twin.Pushes || got.Pulls != twin.Pulls:
		h.fail("%s: %d minibatches / %d pushes / %d pulls, twin had %d / %d / %d", what,
			got.Minibatches, got.Pushes, got.Pulls, twin.Minibatches, twin.Pushes, twin.Pulls)
	case got.FinalLoss != twin.FinalLoss:
		h.fail("%s: final loss %v, twin had %v", what, got.FinalLoss, twin.FinalLoss)
	}
}

// prepareLiveTCP: a round is one full Train over loopback TCP, bring-up and
// teardown included. The in-process twin of the same deployment runs once in
// set-up and supplies the reference counts and loss (WSP numerics do not
// depend on timing or transport, so they must match bit for bit).
func prepareLiveTCP(h *harness) []roundKind {
	mbs := h.pick(3000, 120)
	var dep, twinDep *hetpipe.Deployment
	var err error
	h.setupPiece(func() { dep, err = liveDeployment(h.seed, mbs, true) })
	if err == nil {
		h.setupPiece(func() { twinDep, err = liveDeployment(h.seed, mbs, false) })
	}
	var twin *hetpipe.LiveSummary
	if err == nil {
		h.setupPiece(func() { twin, err = twinDep.Train(context.Background()) })
	}
	if err != nil {
		h.op(1)
		h.fail("live-tcp set-up: %v", err)
		return nil
	}
	var got *hetpipe.LiveSummary
	kinds := []roundKind{{
		units: twin.Minibatches,
		run: func() {
			h.tr.span("hetpipe.train", func() { got, err = dep.Train(context.Background()) })
		},
		check: func() { checkLive(h, "live-tcp", got, err, twin) },
	}}
	h.warm(kinds, h.pick(warmPasses, 1))
	return kinds
}

// psShapes is the BENCH_ps.json shape: 32 keys of 256 float64 each.
func psShapes() (keys []string, vecs, dst []tensor.Vector) {
	const nKeys, dim = 32, 256
	for i := 0; i < nKeys; i++ {
		keys = append(keys, fmt.Sprintf("chunk%04d", i))
		v := make(tensor.Vector, dim)
		for j := range v {
			v[j] = float64(i*dim+j) * 1e-6
		}
		vecs = append(vecs, v)
		dst = append(dst, make(tensor.Vector, dim))
	}
	return keys, vecs, dst
}

// psLoopback stands up one shard server on a loopback listener and a client
// connected to it; stop closes both ends.
func psLoopback(keys []string, dim int) (c *ps.Client, stop func(), err error) {
	s, err := ps.NewServer(1)
	if err != nil {
		return nil, nil, err
	}
	for _, k := range keys {
		if err := s.Register(k, make([]float64, dim)); err != nil {
			return nil, nil, err
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ps.Serve(l, s) // returns the listener's close error once closeServer closes it
	}()
	closeServer := func() {
		l.Close()
		<-done
		s.Close()
	}
	if c, err = ps.Dial(l.Addr().String()); err != nil {
		closeServer()
		return nil, nil, err
	}
	return c, func() { c.Close(); closeServer() }, nil
}

// psProbes times the data-plane operations a live wave is made of, first
// over loopback TCP against one shard, then fanned out in process over four.
// A server keeps every wave it was pushed, so each piece gets a fresh one.
func psProbes(h *harness, m map[string]float64) {
	const waves = 256
	keys, vecs, dst := psShapes()
	dim := len(vecs[0])
	ops := h.pick(waves, 8)
	// loopback runs f ops times against a fresh loopback server, probeReps times,
	// and returns the median microseconds and allocations per op.
	loopback := func(name string, prime bool, f func(c *ps.Client, i int) error) (us, allocs float64) {
		var uss, as []float64
		for rep := 0; rep < h.pick(probeReps, 1); rep++ {
			h.op(1)
			c, stop, err := psLoopback(keys, dim)
			if err == nil && prime {
				_, err = c.PushOrdered(0, keys, vecs)
			}
			if err != nil {
				h.fail("%s: %v", name, err)
				return 0, 0
			}
			p := h.timed(func() {
				h.tr.span(name, func() {
					for i := 0; i < ops && err == nil; i++ {
						err = f(c, i)
					}
				})
			})
			stop()
			if err != nil {
				h.fail("%s: %v", name, err)
				return 0, 0
			}
			uss = append(uss, p.refSeconds()/float64(ops)*1e6)
			as = append(as, float64(p.mallocs)/float64(ops))
		}
		return median(uss), median(as)
	}
	m["ps.push_us"], _ = loopback("ps.push", false, func(c *ps.Client, _ int) error {
		_, err := c.PushOrdered(0, keys, vecs)
		return err
	})
	m["ps.pullat_us"], _ = loopback("ps.pullat", true, func(c *ps.Client, _ int) error {
		return c.PullAtInto(dst, keys, 1)
	})
	m["ps.wave_us"], m["ps.wave_allocs"] = loopback("ps.wave", false, func(c *ps.Client, i int) error {
		if _, err := c.PushOrdered(0, keys, vecs); err != nil {
			return err
		}
		return c.PullAtInto(dst, keys, i+1)
	})

	var pushUS, pullUS []float64
	for rep := 0; rep < h.pick(probeReps, 1); rep++ {
		h.op(1)
		sh, err := shardedInproc(keys, dim, 4)
		if err != nil {
			h.fail("ps.sharded: %v", err)
			return
		}
		p := h.timed(func() {
			h.tr.span("ps.sharded_push", func() {
				for i := 0; i < ops && err == nil; i++ {
					err = sh.PushOrdered(0, keys, vecs)
				}
			})
		})
		pushUS = append(pushUS, p.refSeconds()/float64(ops)*1e6)
		p = h.timed(func() {
			h.tr.span("ps.sharded_pullat", func() {
				for i := 0; i < 8*ops && err == nil; i++ {
					err = sh.PullAtInto(dst, keys, 1)
				}
			})
		})
		pullUS = append(pullUS, p.refSeconds()/float64(8*ops)*1e6)
		if err != nil {
			h.fail("ps.sharded: %v", err)
			return
		}
	}
	m["ps.sharded_push_us"] = median(pushUS)
	m["ps.sharded_pullat_us"] = median(pullUS)
}

func shardedInproc(keys []string, dim, servers int) (*ps.Sharded, error) {
	pl, err := ps.RoundRobin(keys, servers)
	if err != nil {
		return nil, err
	}
	backends := make([]ps.Backend, servers)
	for i := range backends {
		s, err := ps.NewServer(1)
		if err != nil {
			return nil, err
		}
		for _, k := range pl.KeysOn(i) {
			if err := s.Register(k, make([]float64, dim)); err != nil {
				return nil, err
			}
		}
		backends[i] = ps.AdaptServer(s)
	}
	return ps.NewSharded(pl, backends)
}

// liveLedger compares the TCP Train round with its in-process twin (the
// difference is the wire), reads bring-up and teardown off the observer's
// first and last events, and probes ps, train and tensor directly.
func liveLedger(h *harness, m map[string]float64) {
	mbs := h.pick(3000, 120)
	h.op(1)
	var first, last time.Time
	observer := func(hetpipe.Event) {
		last = time.Now()
		if first.IsZero() {
			first = last
		}
	}
	tcp, err := liveDeployment(h.seed, mbs, true)
	var inproc, observed *hetpipe.Deployment
	if err == nil {
		inproc, err = liveDeployment(h.seed, mbs, false)
	}
	if err == nil {
		observed, err = liveDeployment(h.seed, mbs, true, hetpipe.WithObserver(observer))
	}
	var twin *hetpipe.LiveSummary
	if err == nil {
		twin, err = inproc.Train(context.Background())
	}
	if err != nil {
		h.fail("live ledger: %v", err)
		return
	}
	var tTCP, tIn, tObs, bringup, teardown []float64
	maxDist := 0
	// trainOnce times one Train as a piece; start and end bracket the call
	// itself, for placing the observer's first and last events.
	var start, end time.Time
	trainOnce := func(name string, d *hetpipe.Deployment) piece {
		var got *hetpipe.LiveSummary
		p := h.timed(func() {
			h.tr.span(name, func() {
				start = time.Now()
				got, err = d.Train(context.Background())
				end = time.Now()
			})
		})
		checkLive(h, name, got, err, twin)
		if err == nil {
			maxDist = max(maxDist, got.MaxClockDistance)
		}
		return p
	}
	for rep := 0; rep < h.pick(3, 1); rep++ {
		tTCP = append(tTCP, trainOnce("cluster.train_tcp", tcp).refSeconds())
		tIn = append(tIn, trainOnce("cluster.train_inproc", inproc).refSeconds())
		first = time.Time{}
		p := trainOnce("cluster.train_observed", observed)
		tObs = append(tObs, p.refSeconds())
		if !first.IsZero() {
			bringup = append(bringup, first.Sub(start).Seconds()*p.factor()*1e3)
			teardown = append(teardown, end.Sub(last).Seconds()*p.factor()*1e3)
		}
	}
	units := float64(twin.Minibatches)
	m["cluster.bringup_ms"] = median(bringup)
	m["cluster.teardown_ms"] = median(teardown)
	m["cluster.inproc_units_per_s"] = units / median(tIn)
	m["ps.wire_share"] = 1 - median(tIn)/median(tTCP)
	m["obs.observer_share"] = (median(tObs) - median(tTCP)) / median(tTCP)
	m["train.final_loss"] = twin.FinalLoss
	m["cluster.max_clock_distance"] = float64(maxDist)

	// Shard-side operation counts come from cluster.Stats, which the public
	// LiveSummary does not carry, so run the same configuration through
	// cluster.Run once.
	h.op(1)
	task, err := train.DefaultMLPTask(h.seed)
	var stats *cluster.Stats
	if err == nil {
		stats, err = cluster.Run(context.Background(), cluster.Config{
			Task: task, Workers: len(tcp.VirtualWorkers()), Servers: 4, SLocal: tcp.Nm() - 1, D: liveD,
			LR: 0.2, MaxMinibatches: mbs,
		})
	}
	if err != nil {
		h.fail("live ledger cluster.Run: %v", err)
		return
	}
	m["ps.shard_ops_per_wave"] = float64(stats.ShardPushes+stats.ShardPulls) / float64(stats.Pushes)

	psProbes(h, m)

	grads := h.pick(4000, 40)
	w, out := task.InitWeights(), tensor.NewVector(task.Dim())
	a, b := tensor.NewVector(8192), tensor.NewVector(8192)
	for i := range b {
		b[i] = float64(i) * 1e-9
	}
	gradSec, _ := h.probe("train.grad", func() {
		for i := 0; i < grads; i++ {
			task.Grad(w, i, out)
		}
	})
	axpySec, _ := h.probe("tensor.axpy", func() {
		for i := 0; i < grads; i++ {
			a.AXPY(1e-3, b)
		}
	})
	gradUS := gradSec / float64(grads) * 1e6
	m["train.grad_us"] = gradUS
	m["train.grad_share"] = gradUS * 1e-6 * units / median(tTCP)
	m["tensor.axpy_ns_per_kelem"] = axpySec / float64(grads) / float64(len(a)) * 1e3 * 1e9
}
