package serve

import (
	"context"
	"testing"

	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/obs"
	"hetpipe/internal/sched"
)

// admissionCheck replays one serving run's observer stream against the
// admission layer's invariants, per replica: admissions are numbered 1, 2,
// ...; at most cap microbatches are in flight; a microbatch's replies number
// exactly its admitted count and arrive after the previous microbatch's, in
// the order its requests arrived at the replica; and every request is
// replied to exactly once, by the replica it was routed to.
type admissionCheck struct {
	t       *testing.T
	id      string
	cap     []int
	admits  [][]int // per replica: each admitted microbatch's request count
	done    []int   // per replica: microbatches fully replied to
	got     []int   // per replica: replies to the oldest unfinished microbatch
	arrived [][]int // per replica: routed request ids in arrival order
	replied []int   // per replica: how many of arrived have been replied to
	replies []int   // per request: replies seen
	full    bool    // some replica reached its cap
}

func newAdmissionCheck(t *testing.T, id string, dep *core.Deployment, n int) *admissionCheck {
	disc := sched.Or(dep.Sys.Schedule)
	c := &admissionCheck{t: t, id: id, replies: make([]int, n)}
	for _, vp := range dep.VWs {
		c.cap = append(c.cap, max(1, disc.InFlightCap(vp.Plan.VirtualStages(), dep.Nm)))
	}
	w := len(dep.VWs)
	c.admits, c.done, c.got = make([][]int, w), make([]int, w), make([]int, w)
	c.arrived, c.replied = make([][]int, w), make([]int, w)
	return c
}

func (c *admissionCheck) observe(e obs.Event) {
	t, w := c.t, e.VW
	switch e.Kind {
	case obs.KindArrive:
		c.arrived[w] = append(c.arrived[w], e.Request)
	case obs.KindAdmit:
		if want := len(c.admits[w]) + 1; e.Batch != want {
			t.Fatalf("%s: replica %d admitted batch %d, want %d", c.id, w, e.Batch, want)
		}
		if e.Request < 1 {
			t.Fatalf("%s: replica %d admitted an empty batch %d", c.id, w, e.Batch)
		}
		c.admits[w] = append(c.admits[w], e.Request)
		in := len(c.admits[w]) - c.done[w]
		if in > c.cap[w] {
			t.Fatalf("%s: replica %d has %d batches in flight, cap %d", c.id, w, in, c.cap[w])
		}
		c.full = c.full || in == c.cap[w]
	case obs.KindReply:
		if c.replies[e.Request]++; c.replies[e.Request] > 1 {
			t.Fatalf("%s: request %d replied to twice", c.id, e.Request)
		}
		if r := c.replied[w]; r >= len(c.arrived[w]) || c.arrived[w][r] != e.Request {
			t.Fatalf("%s: replica %d replied to request %d out of its arrival order", c.id, w, e.Request)
		}
		c.replied[w]++
		if want := c.done[w] + 1; e.Batch != want || want > len(c.admits[w]) {
			t.Fatalf("%s: replica %d replied in batch %d, want batch %d of %d admitted", c.id, w, e.Batch, want, len(c.admits[w]))
		}
		if c.got[w]++; c.got[w] == c.admits[w][c.done[w]] {
			c.done[w]++
			c.got[w] = 0
		}
	}
}

// finish checks the drained run: every request replied to, every admitted
// microbatch complete, and the cap reached somewhere, or it went untested.
func (c *admissionCheck) finish() {
	if !c.full {
		c.t.Errorf("%s: no replica reached its in-flight cap", c.id)
	}
	for id, n := range c.replies {
		if n != 1 {
			c.t.Fatalf("%s: request %d replied to %d times", c.id, id, n)
		}
	}
	for w := range c.admits {
		if c.done[w] != len(c.admits[w]) {
			c.t.Fatalf("%s: replica %d completed %d of %d batches", c.id, w, c.done[w], len(c.admits[w]))
		}
	}
}

// TestAdmissionInvariantsFromObserverStream runs every traffic kind, with a
// critical class, through three schedules' replicas (contiguous and
// interleaved at V=2), fault-free and under a slowdown plus a crash, and
// checks the admission invariants on each run's observer stream.
func TestAdmissionInvariantsFromObserverStream(t *testing.T) {
	traffics := []string{
		"poisson:r400:n400:crit0.2",
		"diurnal:r400:a0.5:p1:n400:crit0.2",
		"bursty:r200:x4:on0.25:off0.25:n400:crit0.2",
		"closed:u48:t0.005:n400:crit0.2",
	}
	specs := []core.Spec{
		{Model: "vgg19", Policy: "ED", Schedule: sched.NameFIFO},
		{Model: "vgg19", Policy: "ED", Schedule: sched.NameOverlap},
		{Model: "vgg19", Policy: "ED", Schedule: sched.NameInterleaved, Interleave: 2},
	}
	faults := []string{"", "slow:w0:x2,crash:w1:mb5:down0.5"}
	for _, sp := range specs {
		dep, err := sp.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range traffics {
			tr := traffic(t, spec)
			for _, f := range faults {
				plan, err := fault.Parse(f)
				if err != nil {
					t.Fatal(err)
				}
				c := newAdmissionCheck(t, sp.Schedule+"/"+spec+"/"+f, dep, tr.N)
				res, err := Run(context.Background(), dep, tr, Options{Faults: plan, Obs: c.observe})
				if err != nil {
					t.Fatal(err)
				}
				c.finish()
				if f != "" && res.Crashes != 1 {
					t.Errorf("%s: %d crashes, want 1", c.id, res.Crashes)
				}
			}
		}
	}
}
