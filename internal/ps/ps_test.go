package ps

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"hetpipe/internal/tensor"
)

// The data plane takes parallel key and vector slices; most tests read better
// with maps, so these wrap the ordered forms (keys go out sorted).

type orderedPusher interface {
	PushOrdered(w int, keys []string, vecs []tensor.Vector) (int, error)
}

type snapshotPuller interface {
	PullAtInto(dst []tensor.Vector, keys []string, clock int) error
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

func pushMap(p orderedPusher, w int, updates map[string]tensor.Vector) (int, error) {
	keys, vecs := unzip(updates)
	return p.PushOrdered(w, keys, vecs)
}

func shardedPushMap(sh *Sharded, w int, updates map[string]tensor.Vector) error {
	keys, vecs := unzip(updates)
	return sh.PushOrdered(w, keys, vecs)
}

func pullAtMap(p snapshotPuller, keys []string, clock int) (map[string]tensor.Vector, error) {
	dst := make([]tensor.Vector, len(keys))
	if err := p.PullAtInto(dst, keys, clock); err != nil {
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
	srv, err := p.ServerOf("c")
	if err != nil || srv != 0 {
		t.Errorf("ServerOf(c) = %d, %v", srv, err)
	}
	if _, err := p.ServerOf("zzz"); err == nil {
		t.Error("unplaced key accepted")
	}
}

func TestPlacementValidation(t *testing.T) {
	if _, err := RoundRobin(nil, 0); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := NewPlacement(map[string]int{"a": 7}, 2); err == nil {
		t.Error("out-of-range assignment accepted")
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
		srv, _ := pl.ServerOf(k)
		srvs[srv].Register(k, []float64{0})
	}
	for w := 0; w < 2; w++ {
		perServer := make([]map[string]tensor.Vector, servers)
		for i := range perServer {
			perServer[i] = make(map[string]tensor.Vector)
		}
		for _, k := range keys {
			srv, _ := pl.ServerOf(k)
			perServer[srv][k] = tensor.Vector{1}
		}
		for i, updates := range perServer {
			if _, err := pushMap(srvs[i], w, updates); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range keys {
		srv, _ := pl.ServerOf(k)
		got, err := pullAtMap(srvs[srv], []string{k}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[k][0] != 2 {
			t.Errorf("shard %s = %v, want 2", k, got[k][0])
		}
	}
}
