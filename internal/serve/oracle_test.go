package serve

import (
	"context"
	"fmt"
	"testing"

	"hetpipe/internal/core"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/sched"
)

// TestLightLoadLatencyIsTraversal is the light-load oracle: a request that
// finds its replica idle is a lone microbatch threading the pipeline, so its
// latency is the replica's serial traversal time — every virtual stage's
// forward time plus its activation receive — exactly, since those times are
// Quantum multiples and their sums below the horizon do not round.
//
// The traffic is a fault-free closed loop with one user per replica and no
// think time: each user's next request arrives the instant its last reply
// leaves, so the user's requests are spaced exactly a traversal apart and
// arrive at Quantum multiples, and at most one other request per other user
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
