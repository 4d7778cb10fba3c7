package ps

import (
	"testing"

	"hetpipe/internal/tensor"
)

// newAllocFixture builds a 4-server sharded deployment with per-chunk
// ordered scratch, mirroring the live runtime's steady-state shapes.
func newAllocFixture(t *testing.T) (*Sharded, []string, []tensor.Vector, []tensor.Vector) {
	t.Helper()
	const servers = 4
	const nkeys = 8
	const dim = 64
	keys := make([]string, nkeys)
	push := make([]tensor.Vector, nkeys)
	dst := make([]tensor.Vector, nkeys)
	for i := range keys {
		keys[i] = string(rune('a' + i))
		push[i] = make(tensor.Vector, dim)
		dst[i] = make(tensor.Vector, dim)
		for j := range push[i] {
			push[i][j] = float64(i*dim+j) * 1e-3
		}
	}
	pl, err := RoundRobin(keys, servers)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]Backend, servers)
	for i := range backends {
		s, err := NewServer(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range pl.KeysOn(i) {
			if err := s.Register(k, make([]float64, dim)); err != nil {
				t.Fatal(err)
			}
		}
		backends[i] = AdaptServer(s)
	}
	sh, err := NewSharded(pl, backends)
	if err != nil {
		t.Fatal(err)
	}
	return sh, keys, push, dst
}

// TestShardedInprocAllocsPinned pins the in-process data-plane fix: the old
// path cloned every weight map key-by-key on the server AND merged it into a
// second identical map client-side (tens of allocations per op). The ordered
// path must stay at one retained wave-delta backing per involved server on
// push and zero steady-state allocations on snapshot pulls.
func TestShardedInprocAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under the race detector")
	}
	sh, keys, push, dst := newAllocFixture(t)

	// Materialize the first snapshot off-measurement.
	if err := sh.PushOrdered(0, keys, push); err != nil {
		t.Fatal(err)
	}
	if err := sh.PullAtInto(dst, keys, 1); err != nil {
		t.Fatal(err)
	}

	pushAllocs := testing.AllocsPerRun(100, func() {
		if err := sh.PushOrdered(0, keys, push); err != nil {
			t.Fatal(err)
		}
	})
	// One backing array per involved server (4), plus amortized growth of
	// the servers' flat wave-delta slots.
	if pushAllocs > 5 {
		t.Errorf("sharded in-process PushOrdered = %.1f allocs/op, want <= 5", pushAllocs)
	}

	pullAllocs := testing.AllocsPerRun(100, func() {
		if err := sh.PullAtInto(dst, keys, 1); err != nil {
			t.Fatal(err)
		}
	})
	// Reused destinations, no per-exchange scratch, retained snapshot: the
	// steady state must not allocate at all (1 leaves slack for runtime
	// noise).
	if pullAllocs > 1 {
		t.Errorf("sharded in-process PullAtInto = %.1f allocs/op, want <= 1", pullAllocs)
	}
}

// TestShardedTCPWaveAllocsPinned is the same pin for the shape a live wave
// has: one worker's fused exchange — push wave v, pull clock v+1 — over four
// loopback shards. Both ends reuse their frame buffers, the fold recycles the
// wave's backing into the next push, and nothing is spawned per operation, so
// all a steady-state wave may allocate is the one flat snapshot each shard
// materialises for the new clock (the count is process-wide: the servers'
// goroutines are in it). When the servers are released below each pulled
// clock, as the live runtime releases them below its workers' floors, the
// new clock is folded into the snapshot the release recycled, and the wave
// allocates nothing at all.
func TestShardedTCPWaveAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under the race detector")
	}
	const servers, nkeys, dim = 4, 8, 64
	keys, dims := make([]string, nkeys), make([]int, nkeys)
	push, dst := make([]tensor.Vector, nkeys), make([]tensor.Vector, nkeys)
	for i := range keys {
		keys[i], dims[i] = string(rune('a'+i)), dim
		push[i], dst[i] = make(tensor.Vector, dim), make(tensor.Vector, dim)
	}
	for _, c := range []struct {
		name    string
		release bool
		// want is one snapshot per shard, plus the amortized growth of each
		// server's snapshot and wave-delta slices; or, released, the slack of
		// one for runtime noise.
		want float64
	}{{"retain-all", false, servers + 1}, {"released", true, 1}} {
		t.Run(c.name, func(t *testing.T) {
			d := newDeployment(t, 1, servers, keys, dims, true)
			sh := d.workers[0]
			clock := 0
			wave := func() {
				clock++
				if err := sh.Exchange(&Push{Worker: 0, Vecs: push}, &SnapshotPull{Clock: clock, Dst: dst}); err != nil {
					t.Fatal(err)
				}
				if c.release {
					for _, s := range d.servers {
						s.Release(clock)
					}
				}
			}
			for i := 0; i < 8; i++ {
				wave() // size every buffer, fix the snapshot layout
			}
			if allocs := testing.AllocsPerRun(200, wave); allocs > c.want {
				t.Errorf("fused exchange over %d loopback shards = %.1f allocs/op, want <= %v", servers, allocs, c.want)
			}
			if c.release {
				for i, s := range d.servers {
					if n := s.Retained(); n != 1 {
						t.Errorf("server %d holds %d snapshots after a release at the newest clock, want 1", i, n)
					}
				}
			}
		})
	}
}
