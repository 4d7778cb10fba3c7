package ps

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hetpipe/internal/tensor"
)

// deployment is M shard servers under a round-robin placement with one
// Sharded per worker — in process, or over loopback TCP with a connection
// per worker per shard, as internal/cluster deploys them.
type deployment struct {
	servers []*Server
	workers []*Sharded
	closers []func()
}

// close hangs up every client, then stops every listener (last opened, first
// closed: Serve returns only once its connections have). newDeployment
// schedules it as a cleanup; a benchmark that goes through many deployments
// calls it itself.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

func newDeployment(t testing.TB, workers, servers int, keys []string, dims []int, tcp bool) *deployment {
	t.Helper()
	pl, err := RoundRobin(keys, servers)
	if err != nil {
		t.Fatal(err)
	}
	dimOf := map[string]int{}
	for i, k := range keys {
		dimOf[k] = dims[i]
	}
	d := &deployment{}
	t.Cleanup(d.close)
	addrs := make([]string, servers)
	for i := 0; i < servers; i++ {
		s, err := NewServer(workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range pl.KeysOn(i) {
			init := make([]float64, dimOf[k])
			for j := range init {
				init[j] = float64(len(k)+j) * 0.25
			}
			if err := s.Register(k, init); err != nil {
				t.Fatal(err)
			}
		}
		d.servers = append(d.servers, s)
		if tcp {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan struct{})
			go func() {
				Serve(l, s)
				close(served)
			}()
			d.closers = append(d.closers, func() {
				l.Close()
				<-served
			})
			addrs[i] = l.Addr().String()
		}
	}
	for w := 0; w < workers; w++ {
		backends := make([]Backend, servers)
		for i, s := range d.servers {
			if !tcp {
				backends[i] = AdaptServer(s)
				continue
			}
			c, err := Dial(addrs[i])
			if err != nil {
				t.Fatal(err)
			}
			d.closers = append(d.closers, func() { c.Close() })
			backends[i] = c
		}
		sh, err := NewSharded(pl, backends)
		if err != nil {
			t.Fatal(err)
		}
		d.workers = append(d.workers, sh)
	}
	return d
}

// observe is everything a test can see of a deployment from outside.
type observed struct {
	global, distance []int
	pushes, pulls    []uint64
}

func (d *deployment) observe() observed {
	var o observed
	for _, s := range d.servers {
		p, q := s.Stats()
		o.global = append(o.global, s.GlobalClock())
		o.distance = append(o.distance, s.MaxClockDistance())
		o.pushes = append(o.pushes, p)
		o.pulls = append(o.pulls, q)
	}
	return o
}

func sameBits(a, b []tensor.Vector) error {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("vector %d: length %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return fmt.Errorf("vector %d coord %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// TestExchangeEqualsPushThenPull is the fused frame's oracle: random WSP
// schedules are played, step by step, on two identical deployments — one
// sends each step's push and gated pull as one Exchange, its twin as a push
// followed by a pull — and after every step everything observable must be
// equal: the pulled vectors bit for bit, every shard's global clock (which
// must also be the schedule's, the moment the step's calls return), clock
// distance and operation counts. The driver is sequential so the twins see
// the same interleaving; a step's pull is fused only when it would not block
// (at D = 0 that is the last worker to push a wave), otherwise it is owed and
// paid as a pull of its own before the worker's next push.
func TestExchangeEqualsPushThenPull(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := "inprocess"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			trials := 40
			if tcp || testing.Short() {
				trials = 12
			}
			fused := 0
			for trial := 0; trial < trials; trial++ {
				fused += playSchedule(t, rand.New(rand.NewSource(int64(1000+trial))), tcp)
			}
			if fused < 5*trials {
				t.Fatalf("only %d fused steps over %d schedules: the property is not being exercised", fused, trials)
			}
		})
	}
}

func playSchedule(t *testing.T, rng *rand.Rand, tcp bool) (fusedSteps int) {
	t.Helper()
	workers, servers, d := 1+rng.Intn(4), 1+rng.Intn(4), rng.Intn(3)
	keys := make([]string, 1+rng.Intn(8))
	dims := make([]int, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		dims[i] = 1 + rng.Intn(5)
	}
	one := newDeployment(t, workers, servers, keys, dims, tcp)
	two := newDeployment(t, workers, servers, keys, dims, tcp)

	// vectors is one vector per key, of a random mix of right-sized and
	// empty ones: a pull fills either.
	vectors := func() (vs []tensor.Vector) {
		for i := range keys {
			if rng.Intn(4) > 0 {
				vs = append(vs, make(tensor.Vector, dims[i]))
			} else {
				vs = append(vs, nil)
			}
		}
		return vs
	}
	clocks := make([]int, workers) // waves pushed per worker
	owed := make([]int, workers)   // clock of a pull not yet made, 0 = none
	global := func() int {
		g := clocks[0]
		for _, c := range clocks {
			g = min(g, c)
		}
		return g
	}
	check := func(step int, what string) {
		t.Helper()
		a, b := one.observe(), two.observe()
		for i, g := range a.global {
			if g != global() {
				t.Fatalf("step %d (%s): server %d's global clock is %d, schedule says %d", step, what, i, g, global())
			}
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d (%s): deployments diverge:\n one %+v\n two %+v", step, what, a, b)
		}
	}
	pullBoth := func(step, w, clock int) {
		t.Helper()
		dst1 := vectors()
		dst2 := cloneVecs(dst1)
		if err := one.workers[w].Exchange(nil, &SnapshotPull{Clock: clock, Dst: dst1}); err != nil {
			t.Fatal(err)
		}
		if err := two.workers[w].PullAtInto(dst2, keys, clock); err != nil {
			t.Fatal(err)
		}
		if err := sameBits(dst1, dst2); err != nil {
			t.Fatalf("step %d: pull at clock %d: %v", step, clock, err)
		}
	}

	for step := 0; step < 60; step++ {
		// Any worker inside the D+1 window may move.
		w := rng.Intn(workers)
		for clocks[w]-global() > d {
			w = rng.Intn(workers)
		}
		if owed[w] > 0 {
			if owed[w] > global() {
				continue // would block: someone else has to move first
			}
			pullBoth(step, w, owed[w])
			owed[w] = 0
			check(step, "owed pull")
			continue
		}
		wave := clocks[w]
		pv := make([]tensor.Vector, len(keys))
		for i := range pv {
			pv[i] = make(tensor.Vector, dims[i])
			for j := range pv[i] {
				pv[i][j] = rng.NormFloat64()
			}
		}
		push := &Push{Worker: w, Vecs: pv}
		clocks[w]++
		req := wave + 1 - d
		switch {
		case req <= 0:
			if err := one.workers[w].Exchange(push, nil); err != nil {
				t.Fatal(err)
			}
			if err := two.workers[w].PushOrdered(w, keys, pv); err != nil {
				t.Fatal(err)
			}
			check(step, "ungated push")
		case req > global():
			if err := one.workers[w].Exchange(push, nil); err != nil {
				t.Fatal(err)
			}
			if err := two.workers[w].PushOrdered(w, keys, pv); err != nil {
				t.Fatal(err)
			}
			owed[w] = req
			check(step, "push, pull owed")
		default:
			dst1 := vectors()
			dst2 := cloneVecs(dst1)
			if err := one.workers[w].Exchange(push, &SnapshotPull{Clock: req, Dst: dst1}); err != nil {
				t.Fatal(err)
			}
			if err := two.workers[w].PushOrdered(w, keys, pv); err != nil {
				t.Fatal(err)
			}
			if err := two.workers[w].PullAtInto(dst2, keys, req); err != nil {
				t.Fatal(err)
			}
			if err := sameBits(dst1, dst2); err != nil {
				t.Fatalf("step %d: fused pull at clock %d: %v", step, req, err)
			}
			fusedSteps++
			check(step, "fused")
		}
	}
	return fusedSteps
}

func cloneVecs(vs []tensor.Vector) []tensor.Vector {
	out := make([]tensor.Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

// TestLockStepAtD0DoesNotDeadlock is the run the commit-before-gate order
// exists for: at D = 0 every worker's exchange pushes wave v and pulls clock
// v+1, which needs every worker's wave v — its own included. A server that
// waited for the gate before committing the push would hang all four on the
// first wave; the deadline turns that hang into a failure. Over TCP (every
// request on the wire before any response is read), at one P and at four.
func TestLockStepAtD0DoesNotDeadlock(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const workers, servers, waves = 4, 4, 200
			keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
			dims := []int{3, 1, 4, 1, 5, 9, 2, 6}
			dep := newDeployment(t, workers, servers, keys, dims, true)
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					sh := dep.workers[w]
					vecs, dst := make([]tensor.Vector, len(keys)), make([]tensor.Vector, len(keys))
					for i := range keys {
						vecs[i], dst[i] = make(tensor.Vector, dims[i]), make(tensor.Vector, dims[i])
						for j := range vecs[i] {
							vecs[i][j] = float64(w + 1)
						}
					}
					for v := 0; v < waves; v++ {
						err := sh.Exchange(&Push{Worker: w, Vecs: vecs}, &SnapshotPull{Clock: v + 1, Dst: dst})
						if err != nil {
							errs <- err
							return
						}
						// Clock v+1 holds exactly waves 0..v of all four, on top
						// of newDeployment's initial (len("a")+0)/4.
						if want := 0.25 + float64((v+1)*(1+2+3+4)); dst[0][0] != want {
							errs <- fmt.Errorf("worker %d wave %d: snapshot %v, want %v", w, v, dst[0][0], want)
							return
						}
					}
					errs <- nil
				}(w)
			}
			deadline := time.After(60 * time.Second)
			for w := 0; w < workers; w++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatal(err)
					}
				case <-deadline:
					for _, s := range dep.servers {
						s.Close() // unblock the workers so the test can end
					}
					t.Fatal("lock-step D=0 run deadlocked")
				}
			}
			for i, s := range dep.servers {
				if s.GlobalClock() != waves || s.MaxClockDistance() > 1 {
					t.Errorf("server %d: clock %d distance %d, want %d and <= 1", i, s.GlobalClock(), s.MaxClockDistance(), waves)
				}
			}
		})
	}
}

// TestRejectedExchangeChangesNothing holds every door to the whole-layout
// contract: an exchange covers its layout — a server's keys sorted, a
// Sharded's placement order — with one vector of the right length per key,
// and the keyed calls name exactly that layout in order. Anything else is an
// error that leaves every shard's clocks, counters and snapshots exactly as
// they were and the connection usable: a bad push section, a bad pull section
// behind a good push, keys out of order, short, over or repeated. The doors
// are Sharded (which checks everything before a byte is sent, so no frame
// moves either) and, with one server, the backend itself — the in-process
// Server, or a TCP Client, whose server answers what the client cannot
// check with an application error — each in process and over TCP.
func TestRejectedExchangeChangesNothing(t *testing.T) {
	keys := []string{"a", "b", "c", "d"} // sorted: one server's layout is the placement's
	dims := []int{2, 2, 2, 2}
	vecs := func(dims ...int) []tensor.Vector {
		out := make([]tensor.Vector, len(dims))
		for i, n := range dims {
			out[i] = make(tensor.Vector, n)
		}
		return out
	}
	good := func() *SnapshotPull { return &SnapshotPull{Clock: 1, Dst: vecs(dims...)} }
	// door is one way in: an exchange, and the keyed calls where it has them.
	type door struct {
		exchange func(push *Push, pull *SnapshotPull) error
		push     func(keys []string, vecs []tensor.Vector) error
		pull     func(dst []tensor.Vector, keys []string) error
	}
	rows := []struct {
		name string
		call func(d door) error // nil error: the door accepted it
		// keyed rows need a door with keyed calls.
		keyed bool
	}{
		{"bad worker", func(d door) error { return d.exchange(&Push{Worker: 7, Vecs: vecs(dims...)}, good()) }, false},
		{"negative worker", func(d door) error { return d.exchange(&Push{Worker: -1, Vecs: vecs(dims...)}, good()) }, false},
		{"wrong dim", func(d door) error { return d.exchange(&Push{Vecs: vecs(2, 3, 2, 2)}, good()) }, false},
		{"wrong dim, last key", func(d door) error { return d.exchange(&Push{Vecs: vecs(2, 2, 2, 1)}, nil) }, false},
		{"a vector short", func(d door) error { return d.exchange(&Push{Vecs: vecs(2, 2, 2)}, good()) }, false},
		{"a vector over", func(d door) error { return d.exchange(&Push{Vecs: vecs(2, 2, 2, 2, 2)}, nil) }, false},
		{"no vectors", func(d door) error { return d.exchange(&Push{}, nil) }, false},
		{"a destination short", func(d door) error {
			return d.exchange(&Push{Vecs: vecs(dims...)}, &SnapshotPull{Clock: 1, Dst: vecs(2, 2, 2)})
		}, false},
		{"a destination over", func(d door) error {
			return d.exchange(&Push{Vecs: vecs(dims...)}, &SnapshotPull{Clock: 1, Dst: vecs(2, 2, 2, 2, 2)})
		}, false},
		{"push keys out of order", func(d door) error { return d.push([]string{"b", "a", "c", "d"}, vecs(dims...)) }, true},
		{"push keys short", func(d door) error { return d.push(keys[:3], vecs(2, 2, 2)) }, true},
		{"push keys over", func(d door) error { return d.push(append(keys, "e"), vecs(2, 2, 2, 2, 2)) }, true},
		{"push keys repeated", func(d door) error { return d.push([]string{"a", "a", "c", "d"}, vecs(dims...)) }, true},
		{"push keys unknown", func(d door) error { return d.push([]string{"a", "b", "c", "z"}, vecs(dims...)) }, true},
		{"pull keys out of order", func(d door) error { return d.pull(vecs(dims...), []string{"a", "b", "d", "c"}) }, true},
		{"pull keys short", func(d door) error { return d.pull(vecs(2), keys[:1]) }, true},
		{"pull keys with a wrong count", func(d door) error { return d.pull(vecs(2, 2, 2), keys) }, true},
	}
	// Everything a server exposes: clocks, counters, and a one-server cut's
	// snapshots (the cut is at a clock the exchange below already pulled, so
	// taking it changes nothing).
	states := func(dep *deployment) []any {
		out := []any{dep.observe()}
		for _, s := range dep.servers {
			ck, err := Capture([]*Server{s})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ck)
		}
		return out
	}
	frames := func(dep *deployment) (n uint64) {
		for _, s := range dep.servers {
			n += s.FramesServed()
		}
		return n
	}
	for _, tcp := range []bool{false, true} {
		// One server so that the backend itself is a whole deployment; two so
		// that Sharded has a peer to leave untouched.
		for _, servers := range []int{1, 2} {
			dep := newDeployment(t, 1, servers, keys, dims, tcp)
			sh := dep.workers[0]
			doors := map[string]door{"Sharded": {
				exchange: sh.Exchange,
				push:     func(k []string, v []tensor.Vector) error { return sh.PushOrdered(0, k, v) },
				pull:     func(d []tensor.Vector, k []string) error { return sh.PullAtInto(d, k, 1) },
			}}
			if c := sh.clients[0]; servers == 1 && c != nil {
				doors["Client"] = door{
					exchange: func(p *Push, q *SnapshotPull) error { _, err := c.Exchange(p, q); return err },
					push:     func(k []string, v []tensor.Vector) error { _, err := c.PushOrdered(0, k, v); return err },
					pull:     func(d []tensor.Vector, k []string) error { return c.PullAtInto(d, k, 1) },
				}
			} else if servers == 1 {
				s := sh.servers[0]
				doors["Server"] = door{exchange: func(p *Push, q *SnapshotPull) error { _, err := s.Exchange(p, q); return err }}
			}
			// One committed wave and one materialised snapshot to disturb.
			all := []tensor.Vector{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
			if err := sh.Exchange(&Push{Worker: 0, Vecs: all}, &SnapshotPull{Clock: 1, Dst: cloneVecs(all)}); err != nil {
				t.Fatal(err)
			}
			before, sent := states(dep), frames(dep)
			for name, d := range doors {
				for _, row := range rows {
					if row.keyed && d.push == nil {
						continue
					}
					where := fmt.Sprintf("tcp=%v servers=%d %s, %s", tcp, servers, name, row.name)
					err := row.call(d)
					switch {
					case err == nil:
						t.Errorf("%s: accepted", where)
					case strings.Contains(err.Error(), "protocol error"):
						t.Errorf("%s: %v, want an application error", where, err)
					}
					if after := states(dep); !reflect.DeepEqual(before, after) {
						t.Fatalf("%s: the rejected exchange changed server state", where)
					}
					if name == "Sharded" && frames(dep) != sent {
						t.Fatalf("%s: Sharded sent a frame before rejecting", where)
					}
				}
			}
			// The connections survived all of it.
			dst := cloneVecs(all)
			if err := sh.Exchange(&Push{Worker: 0, Vecs: all}, &SnapshotPull{Clock: 2, Dst: dst}); err != nil {
				t.Fatalf("tcp=%v servers=%d: valid exchange after the rejections: %v", tcp, servers, err)
			}
			// newDeployment's initial (len("d")+1)/4 plus two waves of 8.
			if want := 0.5 + 16; dst[3][1] != want {
				t.Errorf("tcp=%v servers=%d: snapshot after two waves = %v, want %v", tcp, servers, dst[3][1], want)
			}
			for _, s := range dep.servers {
				if s.MalformedRequests() != 0 {
					t.Errorf("tcp=%v: a rejected exchange was counted malformed", tcp)
				}
			}
		}
	}
}

// TestRegisterAfterSnapshotLayoutFails: the layout is fixed by the first
// Meta, exchange or snapshot; a shard registered later would be a key no
// exchange or snapshot holds, so it must fail loudly rather than serve
// garbage.
func TestRegisterAfterSnapshotLayoutFails(t *testing.T) {
	s, err := NewServer(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("a", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("b", []float64{3}); err != nil {
		t.Fatal(err) // no snapshot yet: still allowed
	}
	if _, err := pullAtMap(s, []string{"a", "b"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("c", []float64{4}); err == nil || !strings.Contains(err.Error(), "layout") {
		t.Fatalf("Register after the first snapshot = %v, want a layout error", err)
	}
	// A restored server's layout is fixed from the start.
	ck, err := Capture([]*Server{s})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ck.Restore()
	if err != nil {
		t.Fatal(err)
	}
	r := restored[0]
	if err := r.Register("c", []float64{4}); err == nil {
		t.Fatal("Register on a server restored with snapshots succeeded")
	}
	got, err := pullAtMap(r, []string{"a", "b"}, 0)
	if err != nil || got["a"][1] != 2 || got["b"][0] != 3 {
		t.Fatalf("restored snapshot = %v, %v", got, err)
	}
}
