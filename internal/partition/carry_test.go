package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// linkChangedTwin returns a worker with vw's GPU types in vw's order whose
// links differ in kind somewhere: one GPU swapped for its type's sibling on
// the doubled paper cluster's other node of that type (GPU id ^ 4). It
// returns nil when no single swap changes a link, as when no two neighbours
// of vw share a node or a type.
func linkChangedTwin(r *rand.Rand, c *hw.Cluster, vw *hw.VirtualWorker) *hw.VirtualWorker {
	gpus := c.GPUs()
	k := len(vw.GPUs)
	for _, at := range r.Perm(k) {
		sib := gpus[vw.GPUs[at].ID^4]
		twin := &hw.VirtualWorker{GPUs: append([]*hw.GPU(nil), vw.GPUs...)}
		twin.GPUs[at] = sib
		changed, taken := false, false
		for i, g := range vw.GPUs {
			taken = taken || g == sib
			prev := (i + k - 1) % k // the wrap link counts: interleaved plans cross it
			changed = changed || c.LinkBetween(vw.GPUs[prev], g) != c.LinkBetween(twin.GPUs[prev], twin.GPUs[i])
		}
		if changed && !taken {
			return twin
		}
	}
	return nil
}

// TestCarriedPlansMatchReferenceDP is the wall behind the Nm-axis carry: ONE
// partitioner is driven through ascending, descending, repeated and random Nm
// sequences while the call's other inputs change under it — two workers of
// the same GPU types with one link changed, two schedules, V in {1, 2, 4},
// Perf edited in place, a worker with an unprofiled GPU that fails half-way
// through loading its constants — and every single call must return what the
// reference DP returns, DeepEqual. A carry taken when it should not be (the
// stashes shrank, a chunk no longer fits, a link changed) returns the previous
// call's cuts, which the reference does not.
func TestCarriedPlansMatchReferenceDP(t *testing.T) {
	c, err := hw.ClusterByName("paper-x2")
	if err != nil {
		t.Fatal(err)
	}
	cx, err := hw.NewCluster("VV XX", &hw.GPUType{Name: "Synthetic X", Code: 'X', MemoryBytes: 16 << 30})
	if err != nil {
		t.Fatal(err)
	}
	unprofiled := &hw.VirtualWorker{GPUs: cx.GPUs()}

	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	const maxNm = 12
	sequences := []struct {
		name string
		nms  func(r *rand.Rand) []int
	}{
		{"ascending", func(*rand.Rand) (s []int) {
			for nm := 1; nm <= maxNm; nm++ {
				s = append(s, nm)
			}
			return s
		}},
		{"descending", func(*rand.Rand) (s []int) {
			for nm := maxNm; nm >= 1; nm-- {
				s = append(s, nm)
			}
			return s
		}},
		{"repeated", func(*rand.Rand) (s []int) {
			for nm := 1; nm <= maxNm; nm += 2 {
				s = append(s, nm, nm, nm)
			}
			return s
		}},
		{"random", func(r *rand.Rand) (s []int) {
			for i := 0; i < 2*maxNm; i++ {
				s = append(s, 1+r.Intn(maxNm))
			}
			return s
		}},
	}
	schedules := []sched.Schedule{sched.FIFO, sched.Interleaved}

	r := rand.New(rand.NewSource(18))
	perf := profile.Default()
	pt := New(perf)

	// input is everything but Nm that a call's answer depends on; epoch stands
	// for the model, the batch and every Perf edit.
	type input struct {
		vw    *hw.VirtualWorker
		s     sched.Schedule
		v     int
		epoch int
	}
	var (
		last                               input // of the previous call, when it returned a plan
		lastNm                             int
		lastOK                             bool
		epoch                              int
		calls, plans, refused, unprofileds int
	)
	for round := 0; round < rounds; round++ {
		k := 2 + r.Intn(5)
		workers := make([]*hw.VirtualWorker, 2)
		for workers[1] == nil {
			workers[0] = randomWorker(r, c, k)
			workers[1] = linkChangedTwin(r, c, workers[0])
		}
		if workers[0].TypeString() != workers[1].TypeString() {
			t.Fatalf("twin of %s is %s", workers[0].TypeString(), workers[1].TypeString())
		}
		m := randomModel(r, 4*k+r.Intn(16))
		batch := 1 + r.Intn(64)
		epoch++
		for _, seq := range sequences {
			in := input{workers[r.Intn(2)], schedules[r.Intn(2)], 1 << r.Intn(3), epoch}
			for _, nm := range seq.nms(r) {
				switch r.Intn(12) {
				case 0, 1, 2: // another worker, schedule or interleave degree under the same sequence
					in.vw, in.s, in.v = workers[r.Intn(2)], schedules[r.Intn(2)], 1<<r.Intn(3)
				case 3: // Perf edited in place: each edit moves a different planner constant
					switch epoch++; r.Intn(3) {
					case 0:
						perf.SetAnchor(m.Name, in.vw.GPUs[0].Type.Code, 50+100*r.Float64()) // whole
					case 1:
						perf.WorkspaceBytes = int64(1+r.Intn(3)) << 29 // budget
					case 2:
						perf.IB.Efficiency = 0.3 + 0.6*r.Float64() // the tables themselves
					}
					in.epoch = epoch
				case 4: // a failing call in between, which overwrites only part of the constants
					if _, err := pt.Partition(cx, m, unprofiled, nm, batch); err == nil || errors.Is(err, ErrInfeasible) {
						t.Fatalf("round %d: unprofiled worker: %v", round, err)
					}
					lastOK = false
					unprofileds++
				}
				pt.Sched, pt.Interleave = in.s, in.v
				before := pt.Stats()
				got, gerr := pt.Partition(c, m, in.vw, nm, batch)
				want, werr := referencePartition(pt, c, m, in.vw, nm, batch)
				id := fmt.Sprintf("round %d %s call %d: %s %s V=%d Nm=%d L=%d", round, seq.name, calls, in.vw.TypeString(), in.s.Name(), in.v, nm, len(m.Layers))
				calls++
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s: error %v, reference %v", id, gerr, werr)
				}
				if gerr == nil {
					plans++
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: plan differs from the reference\n got %+v\nwant %+v", id, got, want)
					}
				}
				// Stashes never shrink as Nm grows, so a call that repeats the
				// last planned input at an Nm no smaller was offered a carry;
				// if it ran the DP all the same, the old cuts no longer fit.
				after := pt.Stats()
				if lastOK && in == last && nm >= lastNm && after.Solves > before.Solves {
					refused++
				}
				if rejected := in.v > 1 && !in.s.SupportsInterleave(); (after == before) != rejected {
					t.Fatalf("%s: counts went %+v -> %+v", id, before, after)
				}
				last, lastNm, lastOK = in, nm, gerr == nil
			}
		}
	}
	st := pt.Stats()
	if st.Solves+st.Carried < plans || st.Infeasible > st.Solves {
		t.Errorf("inconsistent counts %+v over %d plans", st, plans)
	}
	// The sweep must reach every branch of the carry, or it proves less than
	// it says.
	if st.Carried == 0 || refused == 0 || st.Infeasible == 0 || unprofileds == 0 {
		t.Fatalf("degenerate sweep: %+v, %d carries refused by a budget, %d unprofiled calls", st, refused, unprofileds)
	}
	t.Logf("%d calls, %d plans: %+v; %d carries refused because a chunk no longer fit; %d unprofiled-GPU errors in between", calls, plans, st, refused, unprofileds)
}
