package ps

import (
	"fmt"
	"sync"

	"hetpipe/internal/tensor"
)

// Sharded spreads one worker's pushes and pulls across multiple servers
// according to a Placement — the client-side half of the paper's deployment,
// where each node runs a parameter server holding a subset of the layers.
//
// Every operation runs on the caller's goroutine. A wave exchange is
// scattered, then gathered: each TCP backend's request is written before the
// first response is read, so a wave's data-plane latency is still the
// slowest shard's, not the sum of all shards'; in-process backends are simply
// called in turn. (Both are safe at D = 0 for the same reason: a server
// commits an exchange's push before it waits for the pull's clock, and all
// workers visit the shards in the same order, so no worker waits on a clock
// while holding back a push its peers need.) A goroutine per shard, which
// this replaced, cost more than it overlapped: each was new, and grew its
// stack on the way down to the socket write.
//
// The type works over any backend implementing Backend (the in-process
// Server does via AdaptServer; *Client is one natively), so the same code
// path serves simulations, tests, and real sockets.
type Sharded struct {
	placement *Placement
	backends  []Backend
	// clients[i] is backends[i] when that is a TCP client — the backends
	// whose exchange splits into a send and a receive — and nil otherwise.
	clients []*Client
	// workers and dims come from each backend's Meta at construction time;
	// an exchange validates its push against them before touching any
	// backend, so a bad update can never advance a subset of the shard
	// clocks.
	workers int
	dims    []map[string]int
	// scratch pools the per-server partitions so the steady-state wave loop
	// allocates nothing.
	scratch sync.Pool
}

// Backend is the per-server operation set Sharded needs. *Client implements
// it natively over TCP; AdaptServer wraps an in-process *Server.
type Backend interface {
	Exchange(push *Push, pull *SnapshotPull) (int, error)
	GlobalClock() (int, error)
	Meta() (Meta, error)
	MaxClockDistance() (int, error)
}

// serverBackend adapts *Server (whose GlobalClock returns no error).
type serverBackend struct{ s *Server }

func (b serverBackend) Exchange(push *Push, pull *SnapshotPull) (int, error) {
	return b.s.Exchange(push, pull)
}
func (b serverBackend) GlobalClock() (int, error)      { return b.s.GlobalClock(), nil }
func (b serverBackend) Meta() (Meta, error)            { return b.s.Meta() }
func (b serverBackend) MaxClockDistance() (int, error) { return b.s.MaxClockDistance(), nil }

// AdaptServer wraps an in-process Server as a Backend.
func AdaptServer(s *Server) Backend { return serverBackend{s} }

// NewSharded builds a sharded client over one backend per placement server.
// It fetches each backend's Meta so pushes can be validated client-side, and
// checks that every placed key is registered on its server.
func NewSharded(p *Placement, backends []Backend) (*Sharded, error) {
	if p == nil {
		return nil, fmt.Errorf("ps: nil placement")
	}
	if len(backends) != p.Servers() {
		return nil, fmt.Errorf("ps: placement expects %d servers, got %d backends", p.Servers(), len(backends))
	}
	s := &Sharded{
		placement: p, backends: backends,
		clients: make([]*Client, len(backends)),
		dims:    make([]map[string]int, len(backends)),
	}
	for i, b := range backends {
		s.clients[i], _ = b.(*Client)
		m, err := b.Meta()
		if err != nil {
			return nil, fmt.Errorf("ps: shard server %d meta: %w", i, err)
		}
		if i == 0 {
			s.workers = m.Workers
		} else if m.Workers != s.workers {
			return nil, fmt.Errorf("ps: shard server %d expects %d workers, server 0 expects %d", i, m.Workers, s.workers)
		}
		s.dims[i] = m.Dims
	}
	for srv := 0; srv < p.Servers(); srv++ {
		for _, key := range p.KeysOn(srv) {
			if _, ok := s.dims[srv][key]; !ok {
				return nil, fmt.Errorf("ps: placed shard %q not registered on server %d", key, srv)
			}
		}
	}
	return s, nil
}

// partition is the pooled state of one sharded operation: the caller's keys
// and vectors split per server, where each pulled key sits in the caller's
// slices, and which sections of an exchange each server is sent.
type partition struct {
	push []Push
	pull []SnapshotPull
	idx  [][]int // idx[srv][j]: caller position of pull[srv].Keys[j]
	// pushTo[srv] / pullFrom[srv] point at push[srv] / pull[srv] when server
	// srv takes part in that half of the running exchange, nil when not: the
	// push (possibly empty) goes to every server whenever the exchange
	// pushes, the pull only to servers holding some of its keys.
	pushTo   []*Push
	pullFrom []*SnapshotPull
}

// acquire returns a pooled (or fresh) partition with one emptied slot per
// backend.
//
//hetlint:hotpath
func (s *Sharded) acquire() *partition {
	pt, _ := s.scratch.Get().(*partition)
	if pt == nil {
		pt = s.newPartition()
	}
	for i := range pt.push {
		pt.push[i].Keys = pt.push[i].Keys[:0]
		pt.push[i].Vecs = pt.push[i].Vecs[:0]
		pt.pull[i].Keys = pt.pull[i].Keys[:0]
		pt.pull[i].Dst = pt.pull[i].Dst[:0]
		pt.idx[i] = pt.idx[i][:0]
		pt.pushTo[i], pt.pullFrom[i] = nil, nil
	}
	return pt
}

func (s *Sharded) newPartition() *partition {
	n := len(s.backends)
	return &partition{
		push: make([]Push, n), pull: make([]SnapshotPull, n), idx: make([][]int, n),
		pushTo: make([]*Push, n), pullFrom: make([]*SnapshotPull, n),
	}
}

// addPull partitions one (key, destination) pair at caller position idx onto
// server srv.
//
//hetlint:hotpath
func (pt *partition) addPull(srv, idx int, key string, dst tensor.Vector) {
	pt.pull[srv].Keys = append(pt.pull[srv].Keys, key)
	pt.pull[srv].Dst = append(pt.pull[srv].Dst, dst)
	pt.idx[srv] = append(pt.idx[srv], idx)
}

// writeBack stores the pulled vectors at the caller's positions: a backend
// may have reallocated a destination (first pull into an empty buffer).
//
//hetlint:hotpath
func (pt *partition) writeBack(dst []tensor.Vector) {
	for srv := range pt.idx {
		for j, idx := range pt.idx[srv] {
			dst[idx] = pt.pull[srv].Dst[j]
		}
	}
}

// Exchange is one wave's conversation with the parameter servers: it pushes
// push (when non-nil) and pulls pull (when non-nil) with one exchange per
// shard server — see Server.Exchange for what each server does with its
// share. Every server receives the push, ones holding none of its keys an
// empty one, so their clocks stay aligned (WSP's global clock is the minimum
// across all shards); only servers holding some of the pull's keys are asked
// for them, all answering from the same clock boundary, so the merged result
// is the deterministic snapshot the WSP analysis reasons about.
//
// The whole exchange is validated (worker range, placement, shard existence,
// lengths, duplicates) before a byte is sent, so a REJECTED exchange leaves
// every shard's clock untouched — no server can refuse what its peers
// already accepted. A failure part-way (a TCP server dying between shards)
// can still leave the clocks skewed; there is no unpush, so callers must
// treat that error as poisoning the run (internal/cluster closes every
// server, which unblocks and fails all peers). Clients whose request went
// out but whose response was not read are closed, and stay failed.
func (s *Sharded) Exchange(push *Push, pull *SnapshotPull) error {
	pt := s.acquire()
	defer s.scratch.Put(pt)
	if push != nil {
		if err := s.partitionPush(pt, push); err != nil {
			return err
		}
	}
	if pull != nil {
		if len(pull.Dst) != len(pull.Keys) {
			return fmt.Errorf("ps: %d destinations for %d keys", len(pull.Dst), len(pull.Keys))
		}
		for i, key := range pull.Keys {
			srv, err := s.placement.ServerOf(key)
			if err != nil {
				return err
			}
			pt.addPull(srv, i, key, pull.Dst[i])
		}
		for srv := range pt.pull {
			if q := &pt.pull[srv]; len(q.Keys) > 0 {
				q.Clock = pull.Clock
				pt.pullFrom[srv] = q
			}
		}
	}
	srv, err := s.scatterGather(pt)
	if err != nil {
		return fmt.Errorf("ps: shard server %d: %w", srv, err)
	}
	if pull != nil {
		pt.writeBack(pull.Dst)
	}
	return nil
}

// partitionPush validates push against the placement and the servers' Meta
// and splits it per server. Unannotated because its fmt formatting runs only
// on the error path.
func (s *Sharded) partitionPush(pt *partition, push *Push) error {
	if push.Worker < 0 || push.Worker >= s.workers {
		return fmt.Errorf("ps: worker %d out of range [0,%d)", push.Worker, s.workers)
	}
	if len(push.Keys) != len(push.Vecs) {
		return fmt.Errorf("ps: %d keys for %d vectors", len(push.Keys), len(push.Vecs))
	}
	for i, key := range push.Keys {
		srv, err := s.placement.ServerOf(key)
		if err != nil {
			return err
		}
		dim, ok := s.dims[srv][key]
		if !ok {
			return fmt.Errorf("ps: shard %q not registered on server %d", key, srv)
		}
		if dim != len(push.Vecs[i]) {
			return fmt.Errorf("ps: shard %q length %d, delta length %d", key, dim, len(push.Vecs[i]))
		}
		for j := 0; j < i; j++ {
			if push.Keys[j] == key {
				return fmt.Errorf("ps: duplicate shard %q in push", key)
			}
		}
		p := &pt.push[srv]
		p.Keys = append(p.Keys, key)
		p.Vecs = append(p.Vecs, push.Vecs[i])
	}
	for srv := range pt.push {
		pt.push[srv].Worker = push.Worker
		pt.pushTo[srv] = &pt.push[srv]
	}
	return nil
}

// scatterGather runs the partitioned exchange: every TCP backend's request is
// written, then every backend is answered in server order — a TCP backend by
// reading its response, an in-process one by running its exchange. On failure
// it reports the failing server, after abandoning every client still owed a
// response.
//
//hetlint:hotpath
func (s *Sharded) scatterGather(pt *partition) (int, error) {
	sent := 0 // clients[:sent] with a share have a request on the wire
	for ; sent < len(s.clients); sent++ {
		if c := s.clients[sent]; c != nil && pt.involves(sent) {
			if err := c.sendWave(pt.pushTo[sent], pt.pullFrom[sent]); err != nil {
				s.abandon(pt, 0, sent)
				return sent, err
			}
		}
	}
	for i, b := range s.backends {
		if !pt.involves(i) {
			continue
		}
		var err error
		if c := s.clients[i]; c != nil {
			_, err = c.receiveWave(pt.pushTo[i], pt.pullFrom[i])
		} else {
			_, err = b.Exchange(pt.pushTo[i], pt.pullFrom[i])
		}
		if err != nil {
			s.abandon(pt, i+1, sent)
			return i, err
		}
	}
	return 0, nil
}

// involves reports whether server i has any share of the running exchange.
//
//hetlint:hotpath
func (pt *partition) involves(i int) bool {
	return pt.pushTo[i] != nil || pt.pullFrom[i] != nil
}

// abandon closes the clients in [from, to) that were sent a request whose
// response will now never be read.
func (s *Sharded) abandon(pt *partition, from, to int) {
	for i := from; i < to; i++ {
		if c := s.clients[i]; c != nil && pt.involves(i) {
			c.abandon()
		}
	}
}

// PushOrdered splits the update (parallel key and delta slices) by placement
// and pushes each slice to its server: Exchange with no pull section.
func (s *Sharded) PushOrdered(worker int, keys []string, vecs []tensor.Vector) error {
	return s.Exchange(&Push{Worker: worker, Keys: keys, Vecs: vecs}, nil)
}

// PullAtInto gathers the clock-versioned snapshot of the requested keys,
// each involved server blocking until its global clock reaches `clock`,
// filling dst[i] with keys[i]'s weights (reusing dst[i]'s storage when its
// length matches): Exchange with no push section.
func (s *Sharded) PullAtInto(dst []tensor.Vector, keys []string, clock int) error {
	return s.Exchange(nil, &SnapshotPull{Clock: clock, Keys: keys, Dst: dst})
}

// GlobalClock reports the minimum clock across all shard servers.
func (s *Sharded) GlobalClock() (int, error) {
	min := -1
	for i, b := range s.backends {
		c, err := b.GlobalClock()
		if err != nil {
			return 0, fmt.Errorf("ps: shard server %d: %w", i, err)
		}
		if min < 0 || c < min {
			min = c
		}
	}
	return min, nil
}

// MaxClockDistance reports the largest clock spread observed by any shard.
func (s *Sharded) MaxClockDistance() (int, error) {
	max := 0
	for i, b := range s.backends {
		d, err := b.MaxClockDistance()
		if err != nil {
			return 0, fmt.Errorf("ps: shard server %d: %w", i, err)
		}
		if d > max {
			max = d
		}
	}
	return max, nil
}
