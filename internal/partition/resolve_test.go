package partition

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// TestReSolveMatchesFromScratch is the wall behind the in-place re-solve: ONE
// partitioner is driven through ascending, repeated and random Nm sequences
// on random models and workers (k 2-6, hetpipe-fifo or interleaved at V in
// {1, 2, 4}), and after every call that ran the DP, every entry a solve
// computes — rows 0..K-2 and the last stage's at L — must equal, value and
// pick bit for bit, what a from-scratch solve of the same constants leaves in
// a copy. A grown call that cannot carry re-solves, and both of its branches
// must be reached: only a re-solve examines fewer cuts than the from-scratch
// solve, by keeping an entry, and one that examines any walked an entry again.
//
// Mutation-checked: keeping an entry without either half of keeps' test — the
// old pick still fits, or its new prev is at most the old value — fails here.
func TestReSolveMatchesFromScratch(t *testing.T) {
	c, err := hw.ClusterByName("paper-x2")
	if err != nil {
		t.Fatal(err)
	}
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	const maxNm = 12
	r := rand.New(rand.NewSource(33))
	pt := New(profile.Default())
	var solves, kept, walked int
	for round := 0; round < rounds; round++ {
		k := 2 + r.Intn(5)
		vw := randomWorker(r, c, k)
		m := randomModel(r, 4*k+r.Intn(16))
		batch := 1 + r.Intn(64)
		pt.Sched, pt.Interleave = sched.FIFO, 1
		if r.Intn(2) == 0 {
			pt.Sched, pt.Interleave = sched.Interleaved, 1<<r.Intn(3)
		}
		var ascending, repeated, random []int
		for nm := 1; nm <= maxNm; nm++ {
			ascending = append(ascending, nm)
		}
		for nm := 1; nm <= maxNm; nm += 2 {
			repeated = append(repeated, nm, nm, nm)
		}
		for range 2 * maxNm {
			random = append(random, 1+r.Intn(maxNm))
		}
		for _, seq := range [][]int{ascending, repeated, random} {
			for _, nm := range seq {
				before := pt.Stats()
				_, err := pt.Partition(c, m, vw, nm, batch)
				after := pt.Stats()
				if after.Solves == before.Solves {
					continue
				}
				solves++
				p := &pt.dp
				ref := *p
				ref.best, ref.choice, ref.cuts = slices.Clone(p.best), slices.Clone(p.choice), slices.Clone(p.cuts)
				scratch, _ := ref.solve(false)
				L, K, row := p.L, p.K, p.L+1
				for j := 0; j < K; j++ {
					for i := p.first(j); i <= L-(K-1-j); i++ {
						at := j*row + i
						if math.Float64bits(p.best[at]) != math.Float64bits(ref.best[at]) || p.choice[at] != ref.choice[at] {
							t.Fatalf("round %d %s V=%d Nm=%d: entry (%d, %d) is (%v, cut %d), from scratch (%v, cut %d)",
								round, vw.TypeString(), pt.Interleave, nm, j, i, p.best[at], p.choice[at], ref.best[at], ref.choice[at])
						}
					}
				}
				if err == nil && !slices.Equal(p.cuts, ref.cuts) {
					t.Fatalf("round %d Nm=%d: cuts %v, from scratch %v", round, nm, p.cuts, ref.cuts)
				}
				// Over the same prev rows a walk examines the same cuts, so a
				// re-solve examines at most what the from-scratch solve does.
				switch priced := after.Priced - before.Priced; {
				case priced > scratch:
					t.Fatalf("round %d Nm=%d: %d cuts examined, from scratch %d", round, nm, priced, scratch)
				case priced < scratch:
					kept++
					if priced > 0 {
						walked++
					}
				}
			}
		}
	}
	if kept == 0 || walked == 0 {
		t.Fatalf("degenerate sweep: of %d solves, %d re-solves kept an entry and %d of those walked one", solves, kept, walked)
	}
	t.Logf("%d solves matched from scratch; %d re-solves kept an entry and %d of those walked one", solves, kept, walked)
}

// FuzzPartitionNmScan holds one partitioner to the reference DP over an Nm
// sequence the fuzzer picks, on a model (its layer count and sizes), a worker,
// a schedule and an interleave degree it picks too: every call must DeepEqual
// referencePartition, or fail when it fails. Nm sequences are where the carry
// and the re-solve act.
func FuzzPartitionNmScan(f *testing.F) {
	c, err := hw.ClusterByName("paper-x2")
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{90, 130, 200, 60, 128, 128, 170, 40, 100, 140, 150, 30, 128, 90, 210, 128}, []byte{0, 5, 9, 3}, uint8(0), uint8(0), uint8(40), uint8(31), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128}, []byte{15, 1, 2}, uint8(4), uint8(1), uint8(120), uint8(7), []byte{1, 3, 3, 2, 9, 12, 12, 5})
	f.Add([]byte{10, 250, 10, 250, 10, 250, 10, 250, 10, 250}, []byte{8, 8}, uint8(1), uint8(2), uint8(13), uint8(63), []byte{16, 1, 16, 2, 8, 8})
	f.Fuzz(func(t *testing.T, sizes, worker []byte, schedule, v, mem, batch uint8, nms []byte) {
		if len(sizes) == 0 || len(sizes) > 40 || len(worker) == 0 || len(worker) > 6 || len(nms) > 16 {
			t.Skip()
		}
		w := make([]float64, len(sizes))
		for i, b := range sizes {
			w[i] = math.Exp(float64(int(b)-128)/16) * 1e9
		}
		m := model.Skewed("fuzz", w, int64(1)<<(10+mem%14), int64(1)<<(16+mem/14%9))
		free := c.GPUs()
		vw := &hw.VirtualWorker{}
		for _, b := range worker {
			at := int(b) % len(free)
			vw.GPUs = append(vw.GPUs, free[at])
			free = slices.Delete(slices.Clone(free), at, at+1)
		}
		s, err := sched.ByName(sched.Names()[int(schedule)%len(sched.Names())])
		if err != nil {
			t.Fatal(err)
		}
		pt := NewInterleaved(profile.Default(), s, 1<<(v%3))
		for _, b := range nms {
			nm := 1 + int(b%16)
			got, gerr := pt.Partition(c, m, vw, nm, 1+int(batch%64))
			want, werr := referencePartition(pt, c, m, vw, nm, 1+int(batch%64))
			if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s V=%d L=%d Nm=%d: (%+v, %v), reference (%+v, %v)", vw.TypeString(), s.Name(), pt.Interleave, len(w), nm, got, gerr, want, werr)
			}
		}
	})
}
