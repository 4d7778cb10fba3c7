package ps

import (
	"errors"
	"math/rand"
	"testing"

	"hetpipe/internal/tensor"
)

// TestPullBelowFloorIsErrReleased pins what a released clock answers, in
// process and over loopback TCP: an error matching ErrReleased — never an
// index out of range — for a pull or a fused exchange below the floor, with
// the exchange's push left uncommitted and the connection still usable, while
// every clock from the floor up still serves the never-released twin's bits.
// One shard server, because a Sharded closes its other clients when one shard
// fails an exchange.
func TestPullBelowFloorIsErrReleased(t *testing.T) {
	keys, dims := []string{"a", "b", "c"}, []int{3, 2, 4}
	for _, tcp := range []bool{false, true} {
		name := "inprocess"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			d := newDeployment(t, 2, 1, keys, dims, tcp)
			twin := newDeployment(t, 2, 1, keys, dims, false)
			vecs := make([]tensor.Vector, len(keys))
			for i, n := range dims {
				vecs[i] = make(tensor.Vector, n)
			}
			pull := func(sh *Sharded, clock int) ([]tensor.Vector, error) {
				dst := make([]tensor.Vector, len(keys))
				err := sh.PullAtInto(dst, keys, clock)
				return dst, err
			}
			for wave := 0; wave < 5; wave++ {
				for w := 0; w < 2; w++ {
					for i := range vecs {
						for j := range vecs[i] {
							vecs[i][j] = float64(1+wave) * float64(1+w) * float64(1+i+j) * 0.125
						}
					}
					for _, x := range []*deployment{d, twin} {
						if err := x.workers[w].PushOrdered(w, keys, vecs); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if _, err := pull(d.workers[0], 4); err != nil {
				t.Fatal(err)
			}
			for _, s := range d.servers {
				s.Release(3)
				if n := s.Retained(); n != 2 {
					t.Fatalf("server holds %d snapshots after releasing below clock 3 of 0..4, want 2", n)
				}
			}
			for _, c := range []int{0, 2} {
				if _, err := pull(d.workers[1], c); !errors.Is(err, ErrReleased) {
					t.Fatalf("pull at released clock %d: %v, want ErrReleased", c, err)
				}
			}
			before := d.observe()
			err := d.workers[0].Exchange(&Push{Worker: 0, Vecs: vecs}, &SnapshotPull{Clock: 1, Dst: make([]tensor.Vector, len(keys))})
			if !errors.Is(err, ErrReleased) {
				t.Fatalf("exchange pulling released clock 1: %v, want ErrReleased", err)
			}
			if after := d.observe(); after.pushes[0] != before.pushes[0] || after.global[0] != before.global[0] {
				t.Fatalf("a rejected exchange committed its push: %+v -> %+v", before, after)
			}
			for _, c := range []int{3, 4, 5} {
				got, err := pull(d.workers[1], c)
				if err != nil {
					t.Fatalf("pull at clock %d above the floor: %v", c, err)
				}
				want, err := pull(twin.workers[1], c)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBits(got, want); err != nil {
					t.Fatalf("clock %d: %v", c, err)
				}
			}
		})
	}
}

// TestCaptureRefusesReleasedPrefix pins that a checkpoint, which holds
// snapshots 0..c, cannot be cut from a server that has released any of them.
func TestCaptureRefusesReleasedPrefix(t *testing.T) {
	servers := buildServers(t, 2, 2, 4)
	if _, err := Capture(servers); err != nil {
		t.Fatalf("capture before any release: %v", err)
	}
	servers[1].Release(2)
	if _, err := Capture(servers); !errors.Is(err, ErrReleased) {
		t.Fatalf("capture after a release: %v, want ErrReleased", err)
	}
}

// TestReleaseMatchesNeverReleasedTwin is Release's differential oracle:
// random interleavings of pushes (workers up to three waves apart), pulls at
// or above the floor, and releases to random floors play on one server and
// on a twin that is never released. Every pull must return the twin's bits,
// and no release may strand a clock at or above the floor.
func TestReleaseMatchesNeverReleasedTwin(t *testing.T) {
	const workers = 3
	keys := []string{"k0", "k1", "k2"}
	dims := []int{4, 1, 3}
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		var pair [2]*Server
		for i := range pair {
			s, err := NewServer(workers)
			if err != nil {
				t.Fatal(err)
			}
			for k, key := range keys {
				init := make([]float64, dims[k])
				for j := range init {
					init[j] = float64(k+j) * 0.5
				}
				if err := s.Register(key, init); err != nil {
					t.Fatal(err)
				}
			}
			pair[i] = s
		}
		s, twin := pair[0], pair[1]
		vecs := make([]tensor.Vector, len(keys))
		for k, n := range dims {
			vecs[k] = make(tensor.Vector, n)
		}
		clocks := make([]int, workers)
		floor := 0
		for step := 0; step < 200; step++ {
			global := clocks[0]
			for _, c := range clocks[1:] {
				global = min(global, c)
			}
			switch op := rng.Intn(5); {
			case op < 2: // push, if the worker is fewer than three waves ahead
				w := rng.Intn(workers)
				if clocks[w]-global >= 3 {
					continue
				}
				for k := range vecs {
					for j := range vecs[k] {
						vecs[k][j] = rng.NormFloat64()
					}
				}
				for _, x := range pair {
					if _, err := pushOnly(x, w, vecs); err != nil {
						t.Fatal(err)
					}
				}
				clocks[w]++
			case op < 4: // pull a random reached clock at or above the floor
				c := floor + rng.Intn(global-floor+1)
				var got, want [3]tensor.Vector
				if err := pullOnly(s, got[:], c); err != nil {
					t.Fatalf("seed %d step %d: pull at %d (floor %d): %v", seed, step, c, floor, err)
				}
				if err := pullOnly(twin, want[:], c); err != nil {
					t.Fatal(err)
				}
				if err := sameBits(got[:], want[:]); err != nil {
					t.Fatalf("seed %d step %d: clock %d (floor %d): %v", seed, step, c, floor, err)
				}
			default: // raise the floor to a random reached clock
				floor += rng.Intn(global - floor + 1)
				s.Release(floor)
				if n, newest := s.Retained(), len(twin.snapshots)-1; n > max(newest-floor+1, 1) {
					t.Fatalf("seed %d step %d: %d snapshots held above floor %d (twin's newest %d)", seed, step, n, floor, newest)
				}
			}
		}
	}
}
