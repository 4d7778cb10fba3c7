package serve

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"hetpipe/internal/core"
	"hetpipe/internal/hw"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/sched"
)

// TestLightLoadLatencyIsTraversal is the light-load oracle: a request that
// finds its replica idle is a lone microbatch threading the pipeline, so its
// latency is the replica's serial traversal time — every virtual stage's
// forward time plus its activation receive — exactly, since those times are
// quantum multiples and their sums below the horizon do not round.
//
// The traffic is a fault-free closed loop with one user per replica and no
// think time: each user's next request arrives the instant its last reply
// leaves, so the user's requests are spaced exactly a traversal apart and
// arrive at quantum multiples, and at most one other request per other user
// is in flight, so bulk routing (idle replicas estimate 0) always finds an
// idle replica. Every schedule is checked, interleaved at V = 2, on NP's four
// single-type replicas, whose traversal times all differ.
func TestLightLoadLatencyIsTraversal(t *testing.T) {
	for _, name := range sched.Names() {
		sp := core.Spec{Model: "vgg19", Policy: "NP", Schedule: name}
		if name == sched.NameInterleaved {
			sp.Interleave = 2
		}
		dep, err := sp.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fill := make([]float64, len(dep.VWs))
		for w, vp := range dep.VWs {
			for _, st := range pipeline.Times(vp.Plan) {
				fill[w] += st.Fwd + st.RecvAct
			}
		}
		tr := traffic(t, fmt.Sprintf("closed:u%d:t0:n200", len(dep.VWs)))
		res, err := Run(context.Background(), dep, tr, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		served := make([]int, len(dep.VWs))
		for id, rq := range res.Trace {
			served[rq.Replica]++
			if got := rq.Done - rq.At; got != fill[rq.Replica] {
				t.Fatalf("%s: request %d on replica %d: latency %v, want its traversal %v exactly", name, id, rq.Replica, got, fill[rq.Replica])
			}
		}
		for w, n := range served {
			if n == 0 {
				t.Errorf("%s: replica %d served nothing: the oracle never saw its traversal", name, w)
			}
		}
	}
}

// TestCapacityOracle bounds every replica's completions by its two capacity
// limits. Replica r's busiest GPU spends bottle_r on each microbatch, and
// each microbatch spends at least the traversal fill_r in flight, where at
// most cap_r = InFlightCap(K, Nm) fit at once. So for every drained run
//
//	Batches_r * bottle_r <= Duration  and  Batches_r * fill_r <= cap_r * Duration,
//
// and between any two of r's completions, at t_i and t_j, at most cap_r of
// the microbatches completing in [t_i, t_j] were admitted before t_i (the
// one completing at t_i among them), and the rest did all their
// busiest-GPU work inside the window:
//
//	(completions in [t_i, t_j] - cap_r) * bottle_r <= t_j - t_i.
//
// All three hold exactly: the times are quantum multiples, so their sums
// and small multiples do not round. The traffic is serve-curve's five shapes
// plus a Poisson offer at twice sum_r Batch/bottle_r, for every schedule
// (interleaved at V = 2) under NP, ED and HD at their automatic Nm,
// fault-free.
func TestCapacityOracle(t *testing.T) {
	const n = 2000
	shapes := []string{
		"poisson:r100", "poisson:r160", "poisson:r220",
		"closed:u32:t0.05", "bursty:r120:x3:on1:off3",
	}
	for _, name := range sched.Names() {
		for _, policy := range []string{"NP", "ED", "HD"} {
			sp := core.Spec{Model: "vgg19", Policy: policy, Schedule: name}
			if name == sched.NameInterleaved {
				sp.Interleave = 2
			}
			dep, err := sp.Resolve()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			disc := sched.Or(dep.Sys.Schedule)
			bottle := make([]float64, len(dep.VWs))
			fill := make([]float64, len(dep.VWs))
			capacity := make([]int, len(dep.VWs))
			offer := 0.0
			for w, vp := range dep.VWs {
				k := len(vp.Plan.Stages)
				times := pipeline.Times(vp.Plan)
				capacity[w] = max(disc.InFlightCap(len(times), dep.Nm), 1)
				for g := 0; g < k; g++ {
					busy := 0.0
					for vs := g; vs < len(times); vs += k {
						busy += times[vs].Fwd
						if !disc.OverlapRecv() {
							busy += times[vs].RecvAct
						}
					}
					bottle[w] = max(bottle[w], busy)
				}
				for _, st := range times {
					fill[w] += st.Fwd + st.RecvAct
				}
				offer += float64(dep.Sys.Batch) / bottle[w]
			}
			specs := append([]string{fmt.Sprintf("poisson:r%.0f", 2*offer)}, shapes...)
			for _, shape := range specs {
				spec := fmt.Sprintf("%s:n%d:seed3", shape, n)
				res, err := Run(context.Background(), dep, traffic(t, spec), Options{})
				if err != nil {
					t.Fatalf("%s/%s %s: %v", name, policy, spec, err)
				}
				done := make([][]float64, len(dep.VWs))
				for _, rq := range res.Trace {
					done[rq.Replica] = append(done[rq.Replica], rq.Done)
				}
				for w, d := range done {
					slices.Sort(d)
					d = slices.Compact(d)
					rs := res.Replicas[w]
					if len(d) != rs.Batches {
						t.Fatalf("%s/%s %s: replica %d has %d distinct completion times for %d batches", name, policy, spec, w, len(d), rs.Batches)
					}
					b := float64(rs.Batches)
					if b*bottle[w] > res.Duration {
						t.Errorf("%s/%s %s: replica %d ran %d batches of busiest-GPU time %v in %v", name, policy, spec, w, rs.Batches, bottle[w], res.Duration)
					}
					if b*fill[w] > float64(capacity[w])*res.Duration {
						t.Errorf("%s/%s %s: replica %d ran %d traversals of %v, %d at a time, in %v", name, policy, spec, w, rs.Batches, fill[w], capacity[w], res.Duration)
					}
					// With u_k = d[k] - k*bottle the window bound for i <= j
					// reads u_i - (cap-1)*bottle <= u_j, so one pass with a
					// running maximum of u checks every window.
					slack := float64(capacity[w]-1) * bottle[w]
					u := func(k int) float64 { return d[k] - float64(k)*bottle[w] }
					top := 0 // the i <= j maximizing u_i
					for j := range d {
						if u(j) > u(top) {
							top = j
						}
						if u(top)-slack > u(j) {
							t.Fatalf("%s/%s %s: replica %d completed %d batches in [%v, %v], %d in flight allowed, at busiest-GPU time %v",
								name, policy, spec, w, j-top+1, d[top], d[j], capacity[w], bottle[w])
						}
					}
				}
			}
		}
	}
}

// TestMD1Waiting is the queueing oracle: a one-GPU replica at Nm = 1 and
// batch 1 serves one request at a time in arrival order, each in the same
// time S — the sum of its forward and activation receive — so under Poisson
// arrivals it is an M/D/1 queue, whose mean wait is the Pollaczek–Khinchine
// value ρS/(2(1−ρ)) at load ρ = λS. The measured mean wait, latency less S,
// must lie within four standard errors of it, the error estimated from 20
// batch means of the waits in arrival order. The loads, request count and
// seeds are fixed in advance.
func TestMD1Waiting(t *testing.T) {
	dep, err := core.Spec{Model: "vgg19", Specs: "V", Batch: 1, Nm: 1}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, st := range pipeline.Times(dep.VWs[0].Plan) {
		s += st.Fwd + st.RecvAct
	}
	const n, batches = 20000, 20
	for _, rho := range []float64{0.3, 0.5, 0.8} {
		for seed := 1; seed <= 3; seed++ {
			tr := traffic(t, fmt.Sprintf("poisson:r1:n%d:seed%d", n, seed)).withRate(rho / s)
			res, err := Run(context.Background(), dep, tr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			means := make([]float64, batches)
			for id, rq := range res.Trace {
				means[id*batches/n] += (rq.Done - rq.At - s) / (n / batches)
			}
			var mean, ss float64
			for _, m := range means {
				mean += m / batches
			}
			for _, m := range means {
				ss += (m - mean) * (m - mean)
			}
			se := math.Sqrt(ss / (batches - 1) / batches)
			want := rho * s / (2 * (1 - rho))
			t.Logf("ρ %.1f seed %d: mean wait %.4g, M/D/1 %.4g, ratio %.3f, %.2f SE", rho, seed, mean, want, mean/want, (mean-want)/se)
			if math.Abs(mean-want) > 4*se {
				t.Errorf("ρ %.1f seed %d: mean wait %v, M/D/1 gives %v: %.2f standard errors off", rho, seed, mean, want, (mean-want)/se)
			}
		}
	}
}

// TestClosedLoopResponseTimeLaw is the interactive response-time law: N
// users who each think, then wait for a reply, then think again, complete
// X = N/(R + Z) requests per second, R the mean response time and Z the mean
// think time. Over a finite run two terms separate the measured
// X·(R̄ + Z) from N, and the tolerance is their sum, fixed before the first
// run:
//
//   - Sampling: the run's think times average Z̄, not Z. They are n
//     independent exponential draws of mean Z, so Z̄ − Z has standard error
//     Z/√n, and X·(R̄ + Z) − X·(R̄ + Z̄) = X·(Z − Z̄) is held to four of them.
//   - The edge: n·(R̄ + Z̄) is the sum of the requests' cycles, think plus
//     response, and each user's cycles tile [0, its last reply], so the sum
//     falls short of N·T (T the last reply) by the users' idle tails. A user's
//     last reply comes no earlier than the last request's issue — until then
//     every reply issues a request — so each tail is at most that request's
//     cycle, and X·(R̄ + Z̄) lies in [N − N·c/T, N], c the longest cycle.
//
// A request's cycle is read from the trace: the first N requests are issued
// at time 0, one per user, and request N+k at the k-th reply, the (k+1)-th
// smallest reply time. Loads run from a lightly used replica set to a
// saturated one; the seeds are fixed.
func TestClosedLoopResponseTimeLaw(t *testing.T) {
	dep := deployment(t, sched.NameFIFO, hw.EqualDistribution, 4)
	const n = 20000
	for _, tc := range []struct {
		users int
		think float64
	}{{8, 0.5}, {64, 0.5}, {64, 0.05}, {256, 0.2}} {
		for seed := 1; seed <= 3; seed++ {
			spec := fmt.Sprintf("closed:u%d:t%g:n%d:seed%d", tc.users, tc.think, n, seed)
			res, err := Run(context.Background(), dep, traffic(t, spec), Options{})
			if err != nil {
				t.Fatal(err)
			}
			done := make([]float64, n)
			var r float64
			for id, rq := range res.Trace {
				done[id] = rq.Done
				r += (rq.Done - rq.At) / n
			}
			slices.Sort(done)
			var cycle float64
			for id, rq := range res.Trace {
				issued := 0.0
				if id >= tc.users {
					issued = done[id-tc.users]
				}
				if rq.At < issued {
					t.Fatalf("%s: request %d arrived at %v, before its issue at %v", spec, id, rq.At, issued)
				}
				cycle = max(cycle, rq.Done-issued)
			}
			big, x := float64(tc.users), n/res.Duration
			law := x * (r + tc.think)
			tol := x*4*tc.think/math.Sqrt(n) + big*cycle/res.Duration
			t.Logf("%s: X·(R̄+Z)/N = %.4f, tolerance %.4f", spec, law/big, tol/big)
			if math.Abs(law-big) > tol {
				t.Errorf("%s: X·(R̄+Z) = %v for N = %d users, beyond the tolerance %v", spec, law, tc.users, tol)
			}
		}
	}
}
