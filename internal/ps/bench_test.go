package ps

import (
	"fmt"
	"net"
	"testing"

	"hetpipe/internal/tensor"
)

// Benchmark shapes: 32 shard keys of 256 float64 each (8192 parameters) is
// the scale the live MLP tasks shard at — big enough that payload encoding
// dominates framing, small enough that a -benchtime 2000x CI run stays fast.
const (
	benchKeys = 32
	benchDim  = 256
	// benchEpoch bounds server-side retained state: a parameter server
	// retains per-wave deltas and clock snapshots by design, so the push
	// benchmarks recreate the server every benchEpoch iterations (off the
	// timer) instead of letting b.N waves of history accumulate.
	benchEpoch = 256
)

func benchShapes() ([]string, map[string]tensor.Vector) {
	keys := make([]string, benchKeys)
	updates := make(map[string]tensor.Vector, benchKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("chunk%04d", i)
		v := make(tensor.Vector, benchDim)
		for j := range v {
			v[j] = float64(i*benchDim+j) * 1e-6
		}
		updates[keys[i]] = v
	}
	return keys, updates
}

// orderedShapes pairs benchShapes' keys with their vectors in key order,
// plus a reusable pull destination — the live runtime's steady-state shapes.
func orderedShapes() ([]string, []tensor.Vector, []tensor.Vector) {
	keys, updates := benchShapes()
	vecs := make([]tensor.Vector, len(keys))
	dst := make([]tensor.Vector, len(keys))
	for i, k := range keys {
		vecs[i] = updates[k]
		dst[i] = make(tensor.Vector, benchDim)
	}
	return keys, vecs, dst
}

func newBenchServer(b *testing.B, keys []string, updates map[string]tensor.Vector) *Server {
	b.Helper()
	s, err := NewServer(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		if err := s.Register(k, make([]float64, len(updates[k]))); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// newBenchBackends builds `servers` in-process shard servers under a
// round-robin placement over keys.
func newBenchBackends(b *testing.B, keys []string, servers int) (*Placement, []Backend) {
	b.Helper()
	pl, err := RoundRobin(keys, servers)
	if err != nil {
		b.Fatal(err)
	}
	backends := make([]Backend, servers)
	for i := range backends {
		s, err := NewServer(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range pl.KeysOn(i) {
			if err := s.Register(k, make([]float64, benchDim)); err != nil {
				b.Fatal(err)
			}
		}
		backends[i] = AdaptServer(s)
	}
	return pl, backends
}

// BenchmarkTCPPushPull measures one client round-trip over loopback TCP on
// the binary wire protocol: a whole-layout push, a clock-versioned snapshot
// pull, and the two fused into the one exchange a live wave performs.
func BenchmarkTCPPushPull(b *testing.B) {
	keys, vecs, dst := orderedShapes()
	_, updates := benchShapes()

	b.Run("push", func(b *testing.B) {
		var (
			s *Server
			l net.Listener
			c *Client
		)
		setup := func() {
			s = newBenchServer(b, keys, updates)
			var err error
			l, err = net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go Serve(l, s)
			if c, err = Dial(l.Addr().String()); err != nil {
				b.Fatal(err)
			}
		}
		teardown := func() {
			c.Close()
			l.Close()
		}
		setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%benchEpoch == 0 {
				b.StopTimer()
				teardown()
				setup()
				b.StartTimer()
			}
			if _, err := c.PushOrdered(0, keys, vecs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		teardown()
	})

	b.Run("pullat", func(b *testing.B) {
		s := newBenchServer(b, keys, updates)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		go Serve(l, s)
		c, err := Dial(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.PushOrdered(0, keys, vecs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.PullAtInto(dst, keys, 1); err != nil {
				b.Fatal(err)
			}
		}
	})

	// wave is the per-wave round trip a live worker performs: one exchange
	// that pushes the aggregated update and pulls the snapshot at the clock
	// it produced. Each pull is a fresh clock (one snapshot clone plus the
	// wave fold), so this exercises the fold/recycle steady state rather
	// than the repeated same-clock read the pullat sub-benchmark measures.
	b.Run("wave", func(b *testing.B) {
		var (
			s *Server
			l net.Listener
			c *Client
		)
		setup := func() {
			s = newBenchServer(b, keys, updates)
			var err error
			l, err = net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go Serve(l, s)
			if c, err = Dial(l.Addr().String()); err != nil {
				b.Fatal(err)
			}
		}
		teardown := func() {
			c.Close()
			l.Close()
		}
		setup()
		clock := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%benchEpoch == 0 {
				b.StopTimer()
				teardown()
				setup()
				clock = 0
				b.StartTimer()
			}
			clock++
			if _, err := c.Exchange(&Push{Worker: 0, Vecs: vecs}, &SnapshotPull{Clock: clock, Dst: dst}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		teardown()
	})
}

// BenchmarkShardedTCP measures the shape a live wave has end to end: one
// worker's fused exchange — push wave v, pull clock v+1 — scattered to four
// loopback shard servers and gathered on the caller's goroutine. frames/op is
// the round-trip count the servers report, which the fusion halved.
func BenchmarkShardedTCP(b *testing.B) {
	const servers = 4
	keys, vecs, dst := orderedShapes()
	dims := make([]int, len(keys))
	for i := range dims {
		dims[i] = benchDim
	}
	b.Run("wave", func(b *testing.B) {
		var (
			dep    *deployment
			frames uint64
		)
		teardown := func() {
			for _, s := range dep.servers {
				frames += s.FramesServed() - 1 // less NewSharded's Meta query
			}
			dep.close()
		}
		dep = newDeployment(b, 1, servers, keys, dims, true)
		clock := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%benchEpoch == 0 {
				b.StopTimer()
				teardown()
				dep = newDeployment(b, 1, servers, keys, dims, true)
				clock = 0
				b.StartTimer()
			}
			clock++
			err := dep.workers[0].Exchange(&Push{Worker: 0, Vecs: vecs}, &SnapshotPull{Clock: clock, Dst: dst})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		teardown()
		b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
	})
}

// BenchmarkShardedInproc measures the in-process sharded data plane: one
// worker's push over four shard servers, each called in turn, and the
// matching whole-layout snapshot pull into reused buffers.
func BenchmarkShardedInproc(b *testing.B) {
	const servers = 4
	keys, vecs, dst := orderedShapes()

	newSharded := func(b *testing.B) *Sharded {
		b.Helper()
		pl, backends := newBenchBackends(b, keys, servers)
		sh, err := NewSharded(pl, backends)
		if err != nil {
			b.Fatal(err)
		}
		return sh
	}

	b.Run("push", func(b *testing.B) {
		sh := newSharded(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%benchEpoch == 0 {
				b.StopTimer()
				sh = newSharded(b)
				b.StartTimer()
			}
			if err := sh.PushOrdered(0, keys, vecs); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("pullat", func(b *testing.B) {
		sh := newSharded(b)
		if err := sh.PushOrdered(0, keys, vecs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sh.PullAtInto(dst, keys, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
