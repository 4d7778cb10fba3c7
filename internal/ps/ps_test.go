package ps

import (
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"hetpipe/internal/tensor"
)

// The data plane is Exchange over parallel key and vector slices; most tests
// push or pull alone, and many read better with maps, so these wrap its
// half-empty cases (keys go out sorted).

type exchanger interface {
	Exchange(push *Push, pull *SnapshotPull) (int, error)
}

// pushOnly is an Exchange with no pull section.
func pushOnly(x exchanger, w int, keys []string, vecs []tensor.Vector) (int, error) {
	return x.Exchange(&Push{Worker: w, Keys: keys, Vecs: vecs}, nil)
}

// pullOnly is an Exchange with no push section.
func pullOnly(x exchanger, dst []tensor.Vector, keys []string, clock int) error {
	_, err := x.Exchange(nil, &SnapshotPull{Clock: clock, Keys: keys, Dst: dst})
	return err
}

// shardedX gives a Sharded, whose Exchange returns no clock, the exchanger
// shape.
type shardedX struct{ *Sharded }

func (s shardedX) Exchange(push *Push, pull *SnapshotPull) (int, error) {
	return 0, s.Sharded.Exchange(push, pull)
}

func unzip(updates map[string]tensor.Vector) (keys []string, vecs []tensor.Vector) {
	for k := range updates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vecs = append(vecs, updates[k])
	}
	return keys, vecs
}

func pushMap(x exchanger, w int, updates map[string]tensor.Vector) (int, error) {
	keys, vecs := unzip(updates)
	return pushOnly(x, w, keys, vecs)
}

func shardedPushMap(sh *Sharded, w int, updates map[string]tensor.Vector) error {
	keys, vecs := unzip(updates)
	return sh.PushOrdered(w, keys, vecs)
}

func pullAtMap(x exchanger, keys []string, clock int) (map[string]tensor.Vector, error) {
	dst := make([]tensor.Vector, len(keys))
	if err := pullOnly(x, dst, keys, clock); err != nil {
		return nil, err
	}
	out := make(map[string]tensor.Vector, len(keys))
	for i, k := range keys {
		out[k] = dst[i]
	}
	return out, nil
}

func TestServerRegisterAndPull(t *testing.T) {
	s, err := NewServer(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("w1", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("w1", []float64{0}); err == nil {
		t.Error("duplicate registration accepted")
	}
	got, err := pullAtMap(s, []string{"w1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if clock := s.GlobalClock(); clock != 0 {
		t.Errorf("clock = %d, want 0", clock)
	}
	if got["w1"][1] != 2 {
		t.Errorf("pull = %v", got["w1"])
	}
	// Pulled values are copies.
	got["w1"][1] = 99
	again, _ := pullAtMap(s, []string{"w1"}, 0)
	if again["w1"][1] != 2 {
		t.Error("pull returned aliased storage")
	}
}

func TestServerPushAppliesUpdates(t *testing.T) {
	s, _ := NewServer(2)
	s.Register("w", []float64{10, 20})
	clock, err := pushMap(s, 0, map[string]tensor.Vector{"w": {1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if clock != 1 {
		t.Errorf("worker clock = %d, want 1", clock)
	}
	// Global clock stays 0 until worker 1 pushes.
	if g := s.GlobalClock(); g != 0 {
		t.Errorf("global clock = %d, want 0", g)
	}
	pushMap(s, 1, map[string]tensor.Vector{"w": {0.5, 0.5}})
	if g := s.GlobalClock(); g != 1 {
		t.Errorf("global clock = %d, want 1", g)
	}
	got, _ := pullAtMap(s, []string{"w"}, 1)
	if got["w"][0] != 11.5 || got["w"][1] != 19.5 {
		t.Errorf("weights = %v, want [11.5 19.5]", got["w"])
	}
}

func TestServerPushErrors(t *testing.T) {
	s, _ := NewServer(1)
	s.Register("w", []float64{1})
	if _, err := pushMap(s, 5, nil); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if _, err := pushMap(s, 0, map[string]tensor.Vector{"nope": {1}}); err == nil {
		t.Error("unregistered shard accepted")
	}
	if _, err := pushMap(s, 0, map[string]tensor.Vector{"w": {1, 2}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := pullAtMap(s, []string{"nope"}, 0); err == nil {
		t.Error("pull of unregistered shard accepted")
	}
}

func TestServerBlockingPull(t *testing.T) {
	s, _ := NewServer(2)
	s.Register("w", []float64{0})
	done := make(chan float64, 1)
	go func() {
		got, err := pullAtMap(s, []string{"w"}, 1)
		if err != nil {
			done <- -1
			return
		}
		done <- got["w"][0]
	}()
	select {
	case <-done:
		t.Fatal("pull returned before clock advanced")
	case <-time.After(20 * time.Millisecond):
	}
	pushMap(s, 0, map[string]tensor.Vector{"w": {1}})
	pushMap(s, 1, map[string]tensor.Vector{"w": {1}})
	select {
	case got := <-done:
		if got != 2 {
			t.Errorf("pull at clock 1 read %g, want both wave-0 updates (2)", got)
		}
	case <-time.After(time.Second):
		t.Fatal("pull never unblocked")
	}
}

func TestServerCloseUnblocksPulls(t *testing.T) {
	s, _ := NewServer(2)
	s.Register("w", []float64{0})
	errc := make(chan error, 1)
	go func() {
		_, err := pullAtMap(s, []string{"w"}, 5)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("pull on closed server should fail")
		}
	case <-time.After(time.Second):
		t.Fatal("close did not unblock pull")
	}
}

func TestConcurrentWorkersWSPTraffic(t *testing.T) {
	// N workers push W waves each with concurrent pulls; final weights must
	// equal the sum of all updates (associativity of +=).
	const workers, waves = 4, 25
	s, _ := NewServer(workers)
	s.Register("w", []float64{0})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < waves; c++ {
				if _, err := pushMap(s, w, map[string]tensor.Vector{"w": {1}}); err != nil {
					t.Error(err)
					return
				}
				// A stale read: the snapshot holding everything through wave
				// c-3 from everyone.
				min := c - 2
				if min < 0 {
					min = 0
				}
				if _, err := pullAtMap(s, []string{"w"}, min); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := pullAtMap(s, []string{"w"}, waves)
	if err != nil {
		t.Fatal(err)
	}
	if clock := s.GlobalClock(); clock != waves {
		t.Errorf("final clock = %d, want %d", clock, waves)
	}
	if got["w"][0] != workers*waves {
		t.Errorf("final weight = %v, want %d", got["w"][0], workers*waves)
	}
	pushes, pulls := s.Stats()
	if pushes != workers*waves || pulls == 0 {
		t.Errorf("stats = %d pushes %d pulls", pushes, pulls)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	p, err := RoundRobin(keys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if on0, on1 := len(p.KeysOn(0)), len(p.KeysOn(1)); on0 != 3 || on1 != 2 {
		t.Errorf("distribution = [%d %d], want [3 2]", on0, on1)
	}
	srv, err := p.serverOf("c")
	if err != nil || srv != 0 {
		t.Errorf("serverOf(c) = %d, %v", srv, err)
	}
	if _, err := p.serverOf("zzz"); err == nil {
		t.Error("unplaced key accepted")
	}
}

// TestKeysOnIsSorted pins KeysOn's order: sorted, and the same on every call.
// In map-iteration order, errors naming the first mismatching shard would
// name a different one from run to run.
func TestKeysOnIsSorted(t *testing.T) {
	var keys []string
	for i := range 40 {
		keys = append(keys, fmt.Sprintf("chunk%04d", (i*17)%40))
	}
	p, err := RoundRobin(keys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for srv := range 3 {
		first := p.KeysOn(srv)
		if !sort.StringsAreSorted(first) {
			t.Errorf("server %d: KeysOn = %v, not sorted", srv, first)
		}
		for range 20 {
			if again := p.KeysOn(srv); !slices.Equal(again, first) {
				t.Fatalf("server %d: KeysOn changed between calls: %v then %v", srv, first, again)
			}
		}
	}
}

func TestPlacementValidation(t *testing.T) {
	if _, err := RoundRobin(nil, 0); err == nil {
		t.Error("zero servers accepted")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	s, _ := NewServer(2)
	s.Register("w", []float64{1, 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(l, s)
	defer l.Close()

	c0, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	if clock, err := pushMap(c0, 0, map[string]tensor.Vector{"w": {1, 2}}); err != nil || clock != 1 {
		t.Fatalf("push: clock=%d err=%v", clock, err)
	}
	if clock, err := pushMap(c1, 1, map[string]tensor.Vector{"w": {1, 2}}); err != nil || clock != 1 {
		t.Fatalf("push: clock=%d err=%v", clock, err)
	}
	weights, err := pullAtMap(c0, []string{"w"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if weights["w"][0] != 3 || weights["w"][1] != 5 {
		t.Errorf("pull = %v", weights)
	}
	if g := s.GlobalClock(); g != 1 {
		t.Errorf("global clock = %d, want 1", g)
	}
	// Server-side errors propagate as client errors.
	if _, err := pushMap(c0, 0, map[string]tensor.Vector{"missing": {1}}); err == nil {
		t.Error("push to missing shard should fail over TCP too")
	}
}

func TestTCPBlockingPullAcrossClients(t *testing.T) {
	s, _ := NewServer(2)
	s.Register("w", []float64{0})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(l, s)
	defer l.Close()

	puller, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer puller.Close()
	done := make(chan error, 1)
	go func() {
		_, err := pullAtMap(puller, []string{"w"}, 1)
		done <- err
	}()

	select {
	case <-done:
		t.Fatal("pull returned before both workers pushed")
	case <-time.After(20 * time.Millisecond):
	}
	for w := 0; w < 2; w++ {
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pushMap(c, w, map[string]tensor.Vector{"w": {1}}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked pull failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TCP pull never unblocked")
	}
}

func TestManyShardsAcrossPlacement(t *testing.T) {
	// Simulates the paper's sharded deployment: four servers, shards spread
	// round-robin, two workers pushing to all of them.
	const servers = 4
	var srvs []*Server
	for i := 0; i < servers; i++ {
		s, _ := NewServer(2)
		srvs = append(srvs, s)
	}
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("layer%02d", i)
	}
	pl, _ := RoundRobin(keys, servers)
	for _, k := range keys {
		srv, _ := pl.serverOf(k)
		srvs[srv].Register(k, []float64{0})
	}
	for w := 0; w < 2; w++ {
		perServer := make([]map[string]tensor.Vector, servers)
		for i := range perServer {
			perServer[i] = make(map[string]tensor.Vector)
		}
		for _, k := range keys {
			srv, _ := pl.serverOf(k)
			perServer[srv][k] = tensor.Vector{1}
		}
		for i, updates := range perServer {
			if _, err := pushMap(srvs[i], w, updates); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range keys {
		srv, _ := pl.serverOf(k)
		got, err := pullAtMap(srvs[srv], []string{k}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[k][0] != 2 {
			t.Errorf("shard %s = %v, want 2", k, got[k][0])
		}
	}
}
