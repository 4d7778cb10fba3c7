package ps

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hetpipe/internal/tensor"
)

// serveFixture starts a TCP-served server with one registered shard and
// returns the server, its address, and a cleanup-registered listener.
func serveFixture(t *testing.T, workers int) (*Server, string) {
	t.Helper()
	s, err := NewServer(workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("w", []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		Serve(l, s)
		close(served)
	}()
	t.Cleanup(func() {
		l.Close()
		<-served
	})
	return s, l.Addr().String()
}

// TestTCPCloseDuringBlockedPullReturnsServerClosed blocks the pull half of a
// fused frame: the push commits, the gate (worker 1 never pushes) holds the
// answer, and closing the server must release the client with an error.
func TestTCPCloseDuringBlockedPullReturnsServerClosed(t *testing.T) {
	s, addr := serveFixture(t, 2)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Exchange(&Push{Worker: 0, Vecs: []tensor.Vector{{1, 1}}}, &SnapshotPull{Clock: 1, Dst: []tensor.Vector{nil}})
		done <- err
	}()
	// Commit before gate: the push lands although the answer cannot.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if pushes, _ := s.Stats(); pushes == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the fused frame's push never committed")
		}
	}
	select {
	case err := <-done:
		t.Fatalf("fused exchange returned before its clock: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	s.Close()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "server closed") {
			t.Fatalf("blocked exchange error = %v, want server closed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked exchange never unblocked after Close")
	}
}

func TestTCPCloseDuringBlockedPullAtReturnsServerClosed(t *testing.T) {
	s, addr := serveFixture(t, 2)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := pullAtMap(c, []string{"w"}, 3)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("snapshot pull returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	s.Close()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "server closed") {
			t.Fatalf("blocked PullAt error = %v, want server closed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked PullAt never unblocked after Close")
	}
}

// TestPushIsCommittedWhenItReturns pins the wire's one answer order: a frame
// that only pushes is answered after its commit, like every other frame, so
// by the time PushOrdered returns the server already counts the push. Over
// loopback TCP with at least two Ps, where an answer sent ahead of the commit
// lets the caller read the server's clock before the commit lands; the
// pushes are large so that a commit takes a while. A server keeps every wave
// it is pushed, so each round gets a fresh one.
func TestPushIsCommittedWhenItReturns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const dim, rounds, pushes = 16 << 10, 20, 40
	keys, vecs := []string{"w"}, []tensor.Vector{make(tensor.Vector, dim)}
	for round := 0; round < rounds; round++ {
		s, err := NewServer(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register("w", make([]float64, dim)); err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			Serve(l, s)
			close(served)
		}()
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= pushes; i++ {
			clock, err := c.PushOrdered(0, keys, vecs)
			if err != nil {
				t.Fatal(err)
			}
			if g := s.GlobalClock(); clock != i || g != i {
				t.Fatalf("round %d: push %d returned clock %d while the server's global clock was %d", round, i, clock, g)
			}
		}
		c.Close()
		l.Close()
		<-served
	}
}

// readRawFrame reads one length-prefixed response frame off a raw conn.
func readRawFrame(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("reading response frame header: %v", err)
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatalf("reading response frame payload: %v", err)
	}
	return payload
}

func TestTCPGarbageRequestDropsOnlyThatConnection(t *testing.T) {
	s, addr := serveFixture(t, 1)
	good, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if _, err := pushMap(good, 0, map[string]tensor.Vector{"w": {1, 1}}); err != nil {
		t.Fatal(err)
	}

	// A raw connection that opens with bytes that are not the protocol
	// preamble: the server must answer with a protocol-error frame, count the
	// request as malformed, and drop only that connection.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("definitely not the preamble, and then some")); err != nil {
		t.Fatal(err)
	}
	payload := readRawFrame(t, raw)
	if len(payload) == 0 || payload[0] != statusProtoErr {
		t.Fatalf("garbage preamble response = %v, want statusProtoErr frame", payload)
	}
	if !strings.Contains(string(payload[1:]), "magic") {
		t.Errorf("garbage preamble message = %q, want bad-magic complaint", payload[1:])
	}
	raw.Close()
	if got := s.MalformedRequests(); got != 1 {
		t.Errorf("MalformedRequests after garbage preamble = %d, want 1", got)
	}

	// An unknown-but-well-framed op gets a protocol error response and is
	// counted, but the framing is intact so the connection survives.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var e encoder
	frame := appendPreamble(nil)
	e.begin()
	e.u8(99)
	frame = append(frame, e.finish()...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload = readRawFrame(t, conn)
	if len(payload) == 0 || payload[0] != statusProtoErr {
		t.Fatalf("unknown op response = %v, want statusProtoErr frame", payload)
	}
	if !strings.Contains(string(payload[1:]), "unknown op") {
		t.Errorf("unknown op message = %q", payload[1:])
	}
	if got := s.MalformedRequests(); got != 2 {
		t.Errorf("MalformedRequests after unknown op = %d, want 2", got)
	}
	// Same connection, now a valid request: the server kept it alive.
	e.begin()
	e.u8(opMeta)
	if _, err := conn.Write(e.finish()); err != nil {
		t.Fatal(err)
	}
	payload = readRawFrame(t, conn)
	if len(payload) == 0 || payload[0] != statusOK {
		t.Fatalf("meta after unknown op = %v, want statusOK frame", payload)
	}

	// The healthy client still works after both bad peers.
	if clock, err := pushMap(good, 0, map[string]tensor.Vector{"w": {1, 1}}); err != nil || clock != 2 {
		t.Errorf("healthy client after garbage peer: clock=%d err=%v", clock, err)
	}
	if g := s.GlobalClock(); g != 2 {
		t.Errorf("server clock after both pushes = %d, want 2", g)
	}

	// A client that disconnects cleanly between frames is NOT malformed.
	bye, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bye.Meta(); err != nil {
		t.Fatal(err)
	}
	bye.Close()
	waitForStableMalformed(t, s, 2)
}

// waitForStableMalformed asserts the malformed counter settles at want,
// giving server goroutines a moment to notice connection shutdowns.
func waitForStableMalformed(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if s.MalformedRequests() == want {
			time.Sleep(10 * time.Millisecond) // linger: catch a late bump
			if got := s.MalformedRequests(); got != want {
				t.Fatalf("MalformedRequests = %d, want %d", got, want)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("MalformedRequests = %d, want %d", s.MalformedRequests(), want)
}

func TestTCPConcurrentPushersAndPullers(t *testing.T) {
	// Hammer one server with concurrent pushers and snapshot pullers over
	// separate connections; meant to run under -race.
	const workers = 4
	const waves = 12
	_, addr := serveFixture(t, workers)
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for v := 0; v < waves; v++ {
				if _, err := pushMap(c, w, map[string]tensor.Vector{"w": {1, 1}}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for v := 1; v <= waves; v++ {
				snap, err := pullAtMap(c, []string{"w"}, v)
				if err != nil {
					errs <- err
					return
				}
				if got, want := snap["w"][0], float64(workers*v); got != want {
					errs <- fmt.Errorf("snapshot at clock %d = %g, want %g", v, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// tapListener hands out the server-side end of every connection it accepts,
// so a test can cut one the way a dying shard host would.
type tapListener struct {
	net.Listener
	accepted chan net.Conn
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- c
	}
	return c, err
}

// TestShardKilledBetweenScatterAndGather: with a round trip split into send
// and receive, a shard that dies after the requests went out leaves responses
// in flight on its peers. The operation must fail (not hang), the clients
// still owed a response must be closed and stay failed — a later call on one
// returns the error without touching the socket, so the stale response can
// never be read as the answer to a new request — and the clients that
// completed their round trip must still pair requests with responses.
func TestShardKilledBetweenScatterAndGather(t *testing.T) {
	const shards, victim = 4, 2
	keys := []string{"k0", "k1", "k2", "k3"}
	pl, err := RoundRobin(keys, shards)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*Server, shards)
	clients := make([]*Client, shards)  // worker 0's, the ones under test
	backends := make([]Backend, shards) // the same, as Sharded wants them
	peer := make([]Backend, shards)     // worker 1's
	serverEnds := make([]net.Conn, shards)
	for i := range servers {
		s, err := NewServer(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(keys[i], []float64{0}); err != nil {
			t.Fatal(err)
		}
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		l := tapListener{inner, make(chan net.Conn, 2)} // two dials below
		served := make(chan struct{})
		go func() {
			Serve(l, s)
			close(served)
		}()
		t.Cleanup(func() {
			s.Close()
			l.Close()
			<-served
		})
		if clients[i], err = Dial(inner.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
		serverEnds[i] = <-l.accepted
		p, err := Dial(inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		servers[i], backends[i], peer[i] = s, clients[i], p
	}
	sh, err := NewSharded(pl, backends)
	if err != nil {
		t.Fatal(err)
	}
	peerSh, err := NewSharded(pl, peer)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 0's exchange needs clock 1, i.e. worker 1's wave 0: once every
	// request is written it blocks reading shard 0's response.
	vecs := []tensor.Vector{{1}, {1}, {1}, {1}}
	dst := []tensor.Vector{{0}, {0}, {0}, {0}}
	done := make(chan error, 1)
	go func() {
		done <- sh.Exchange(&Push{Worker: 0, Vecs: vecs}, &SnapshotPull{Clock: 1, Dst: dst})
	}()
	for i, s := range servers { // scattered: every shard has committed worker 0's push
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if p, _ := s.Stats(); p == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never saw the scattered request", i)
			}
		}
	}
	serverEnds[victim].Close() // the shard host dies
	if err := peerSh.PushOrdered(1, keys, vecs); err != nil {
		t.Fatal(err) // opens the gate on the survivors
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard server %d", victim)) {
			t.Fatalf("exchange over a dead shard = %v, want an error naming shard server %d", err, victim)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("exchange over a dead shard hung")
	}

	// Gathered before the failure: intact, and still correctly paired.
	for _, i := range []int{0, 1} {
		if dst[i][0] != 2 {
			t.Errorf("shard %d's snapshot = %v, want 2", i, dst[i][0])
		}
		again := []tensor.Vector{nil}
		if err := clients[i].PullAtInto(again, keys[i:i+1], 1); err != nil || again[0][0] != 2 {
			t.Errorf("client %d after the failure: snapshot %v, %v; want 2", i, again[0], err)
		}
		if m, err := clients[i].Meta(); err != nil || m.Workers != 2 {
			t.Errorf("client %d after the failure: meta %+v, %v", i, m, err)
		}
	}
	// The victim, and the client whose response was still in flight: failed
	// for good, every call, same error, promptly.
	for _, i := range []int{victim, 3} {
		_, first := clients[i].PushOrdered(0, keys[i:i+1], vecs[i:i+1])
		_, second := clients[i].Exchange(nil, &SnapshotPull{Clock: 0, Dst: dst[i : i+1]})
		_, third := clients[i].Meta()
		if first == nil || second != first || third != first {
			t.Errorf("client %d after the failure: %v / %v / %v, want one sticky error", i, first, second, third)
		}
	}
	// Shard 3 did answer — the response nobody will read — so a stale frame
	// really was in flight. And a second sharded operation fails at once.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		p, q := servers[3].Stats()
		if p == 2 && q == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 3 served %d pushes / %d pulls, want 2 / 1", p, q)
		}
	}
	if err := sh.PullAtInto(dst, keys, 0); err == nil {
		t.Error("a sharded pull over failed clients succeeded")
	}
	if err := sh.PushOrdered(0, keys, vecs); err == nil {
		t.Error("a sharded push over failed clients succeeded")
	}
}
