package ps

import (
	"sync"
	"testing"
	"time"

	"hetpipe/internal/tensor"
)

func shardedFixture(t *testing.T, workers int) (*Sharded, []*Server, []string) {
	t.Helper()
	keys := []string{"stage0", "stage1", "stage2", "stage3"}
	pl, err := RoundRobin(keys, 2)
	if err != nil {
		t.Fatal(err)
	}
	var servers []*Server
	var backends []Backend
	for i := 0; i < 2; i++ {
		s, err := NewServer(workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range pl.KeysOn(i) {
			if err := s.Register(k, []float64{0, 0}); err != nil {
				t.Fatal(err)
			}
		}
		servers = append(servers, s)
		backends = append(backends, AdaptServer(s))
	}
	sh, err := NewSharded(pl, backends)
	if err != nil {
		t.Fatal(err)
	}
	return sh, servers, keys
}

func TestShardedPushPullRoundTrip(t *testing.T) {
	sh, _, keys := shardedFixture(t, 1)
	updates := map[string]tensor.Vector{}
	for i, k := range keys {
		updates[k] = tensor.Vector{float64(i), 1}
	}
	if err := shardedPushMap(sh, 0, updates); err != nil {
		t.Fatal(err)
	}
	got, err := pullAtMap(sh, keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if clock, _ := sh.GlobalClock(); clock != 1 {
		t.Errorf("clock = %d, want 1", clock)
	}
	for i, k := range keys {
		if got[k][0] != float64(i) || got[k][1] != 1 {
			t.Errorf("shard %s = %v", k, got[k])
		}
	}
}

func TestShardedClockIsMinAcrossServers(t *testing.T) {
	sh, servers, keys := shardedFixture(t, 2)
	// Worker 0 pushes everywhere; worker 1 has not pushed yet.
	updates := map[string]tensor.Vector{}
	for _, k := range keys {
		updates[k] = tensor.Vector{1, 1}
	}
	if err := shardedPushMap(sh, 0, updates); err != nil {
		t.Fatal(err)
	}
	if c, _ := sh.GlobalClock(); c != 0 {
		t.Errorf("global clock = %d, want 0 (worker 1 lags)", c)
	}
	if err := shardedPushMap(sh, 1, updates); err != nil {
		t.Fatal(err)
	}
	if c, _ := sh.GlobalClock(); c != 1 {
		t.Errorf("global clock = %d, want 1", c)
	}
	for i, s := range servers {
		if s.GlobalClock() != 1 {
			t.Errorf("server %d clock = %d, want 1 (empty pushes keep clocks aligned)", i, s.GlobalClock())
		}
	}
}

func TestShardedPartialKeyPush(t *testing.T) {
	// Pushing only stage0 still ticks both servers' clocks for the worker,
	// so the WSP global clock stays well defined.
	sh, servers, _ := shardedFixture(t, 1)
	if err := shardedPushMap(sh, 0, map[string]tensor.Vector{"stage0": {1, 1}}); err != nil {
		t.Fatal(err)
	}
	for i, s := range servers {
		if s.GlobalClock() != 1 {
			t.Errorf("server %d clock = %d after partial push", i, s.GlobalClock())
		}
	}
}

func TestShardedValidation(t *testing.T) {
	pl, _ := RoundRobin([]string{"a"}, 2)
	if _, err := NewSharded(nil, nil); err == nil {
		t.Error("nil placement accepted")
	}
	if _, err := NewSharded(pl, nil); err == nil {
		t.Error("backend count mismatch accepted")
	}
	sh, _, _ := shardedFixture(t, 1)
	if err := shardedPushMap(sh, 0, map[string]tensor.Vector{"unknown": {1}}); err == nil {
		t.Error("unplaced key accepted on push")
	}
	if _, err := pullAtMap(sh, []string{"unknown"}, 0); err == nil {
		t.Error("unplaced key accepted on pull")
	}
}

func TestShardedPushFailureLeavesClocksUnchanged(t *testing.T) {
	// A push that cannot land in full must not advance any shard's clock:
	// before the client-side validation, backends 0..i-1 would have already
	// ticked when backend i rejected, permanently desynchronizing the shards.
	sh, servers, keys := shardedFixture(t, 2)
	bad := []map[string]tensor.Vector{
		{"stage0": {1, 1}, "unplaced": {1}},     // unplaced key
		{"stage0": {1, 1}, "stage3": {1, 2, 3}}, // length mismatch on a later server's key
		{"stage0": {1, 1, 1}},                   // length mismatch on the first key
	}
	for i, updates := range bad {
		if err := shardedPushMap(sh, 0, updates); err == nil {
			t.Fatalf("bad push %d accepted", i)
		}
		for srv, s := range servers {
			if c := s.GlobalClock(); c != 0 {
				t.Fatalf("bad push %d advanced server %d clock to %d", i, srv, c)
			}
			pushes, _ := s.Stats()
			if pushes != 0 {
				t.Fatalf("bad push %d reached server %d", i, srv)
			}
		}
	}
	if err := shardedPushMap(sh, -1, map[string]tensor.Vector{keys[0]: {1, 1}}); err == nil {
		t.Error("negative worker accepted")
	}
	if err := shardedPushMap(sh, 2, map[string]tensor.Vector{keys[0]: {1, 1}}); err == nil {
		t.Error("out-of-range worker accepted")
	}
	// A valid push still works after the rejections.
	if err := shardedPushMap(sh, 0, map[string]tensor.Vector{keys[0]: {1, 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestShardedPullAtReturnsClockSnapshot(t *testing.T) {
	sh, _, keys := shardedFixture(t, 2)
	push := func(w int, val float64) {
		t.Helper()
		updates := map[string]tensor.Vector{}
		for _, k := range keys {
			updates[k] = tensor.Vector{val, val}
		}
		if err := shardedPushMap(sh, w, updates); err != nil {
			t.Fatal(err)
		}
	}
	push(0, 1) // worker 0, wave 0
	push(1, 2) // worker 1, wave 0 -> global clock 1
	push(0, 4) // worker 0, wave 1 (ahead of the clock)
	// Snapshot at clock 1 contains exactly the wave-0 updates, even though a
	// wave-1 push has already arrived.
	snap, err := pullAtMap(sh, keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if snap[k][0] != 3 {
			t.Errorf("snapshot at clock 1, shard %s = %v, want 3", k, snap[k])
		}
	}
	// Snapshot at clock 0 is the initial weights.
	snap0, err := pullAtMap(sh, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if snap0[k][0] != 0 {
			t.Errorf("snapshot at clock 0, shard %s = %v, want 0", k, snap0[k])
		}
	}
	if d, _ := sh.MaxClockDistance(); d != 1 {
		t.Errorf("max clock distance = %d, want 1", d)
	}
}

func TestShardedPullAtBlocksUntilClock(t *testing.T) {
	sh, _, keys := shardedFixture(t, 2)
	done := make(chan map[string]tensor.Vector, 1)
	go func() {
		snap, err := pullAtMap(sh, keys, 1)
		if err != nil {
			t.Error(err)
		}
		done <- snap
	}()
	updates := map[string]tensor.Vector{}
	for _, k := range keys {
		updates[k] = tensor.Vector{1, 1}
	}
	if err := shardedPushMap(sh, 0, updates); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("PullAt(clock=1) returned before every worker pushed wave 0")
	case <-time.After(20 * time.Millisecond):
	}
	if err := shardedPushMap(sh, 1, updates); err != nil {
		t.Fatal(err)
	}
	snap := <-done
	for _, k := range keys {
		if snap[k][0] != 2 {
			t.Errorf("snapshot shard %s = %v, want 2", k, snap[k])
		}
	}
}

func TestShardedConcurrentWorkers(t *testing.T) {
	sh, _, keys := shardedFixture(t, 4)
	var wg sync.WaitGroup
	const waves = 20
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < waves; c++ {
				updates := map[string]tensor.Vector{}
				for _, k := range keys {
					updates[k] = tensor.Vector{1, 0}
				}
				if err := shardedPushMap(sh, w, updates); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := pullAtMap(sh, keys, waves)
	if err != nil {
		t.Fatal(err)
	}
	if clock, _ := sh.GlobalClock(); clock != waves {
		t.Errorf("clock = %d, want %d", clock, waves)
	}
	for _, k := range keys {
		if got[k][0] != 4*waves {
			t.Errorf("shard %s = %v, want %d", k, got[k][0], 4*waves)
		}
	}
}
