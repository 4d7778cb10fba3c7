package ps

import (
	"fmt"

	"hetpipe/internal/tensor"
)

// Sharded spreads one worker's pushes and pulls across multiple servers
// according to a Placement — the client-side half of the paper's deployment,
// where each node runs a parameter server holding a subset of the layers.
// Its layout is the placement's key order: an exchange carries one vector
// per placed key in that order, and each server is handed its own layout's
// share by position, through an index map built once by NewSharded — so an
// exchange needs no scratch, and one Sharded is safe for concurrent use by
// every in-process worker of a run.
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
// The backends are in-process *Servers and TCP *Clients, so the same code
// path serves simulations, tests, and real sockets.
type Sharded struct {
	placement *Placement
	// servers[i] / clients[i] is backend i as the one of the two types it
	// is; the other is nil. A client's exchange splits into a send and a
	// receive.
	servers []*Server
	clients []*Client
	// sel[i][j] is the placement position of server i's j-th layout key.
	sel [][]int
	// workers and dims (per placement position) come from each backend's
	// Meta at construction time; an exchange is validated against them
	// before touching any backend, so a bad update can never advance a
	// subset of the shard clocks.
	workers int
	dims    []int
}

// Backend is a shard server as Sharded reaches it: *Server in process, or
// *Client over TCP. NewSharded takes no other.
type Backend interface {
	Exchange(push *Push, pull *SnapshotPull) (int, error)
	Meta() (Meta, error)
}

// AdaptServer returns an in-process Server as a Backend.
func AdaptServer(s *Server) Backend { return s }

// NewSharded builds a sharded client over one backend per placement server.
// It fetches each backend's Meta, checks that every server holds exactly the
// keys placed on it, and maps the placement's key order onto each server's
// layout.
func NewSharded(p *Placement, backends []Backend) (*Sharded, error) {
	if p == nil {
		return nil, fmt.Errorf("ps: nil placement")
	}
	if len(backends) != p.servers {
		return nil, fmt.Errorf("ps: placement expects %d servers, got %d backends", p.servers, len(backends))
	}
	s := &Sharded{
		placement: p,
		servers:   make([]*Server, len(backends)),
		clients:   make([]*Client, len(backends)),
		sel:       make([][]int, len(backends)),
		dims:      make([]int, len(p.keys)),
	}
	for i, b := range backends {
		switch b := b.(type) {
		case *Server:
			s.servers[i] = b
		case *Client:
			s.clients[i] = b
		default:
			return nil, fmt.Errorf("ps: shard server %d: backend %T is neither a *Server nor a *Client", i, b)
		}
		m, err := b.Meta()
		if err != nil {
			return nil, fmt.Errorf("ps: shard server %d meta: %w", i, err)
		}
		if i == 0 {
			s.workers = m.Workers
		} else if m.Workers != s.workers {
			return nil, fmt.Errorf("ps: shard server %d expects %d workers, server 0 expects %d", i, m.Workers, s.workers)
		}
		if err := checkLayout(p.KeysOn(i), m.layout()); err != nil {
			return nil, fmt.Errorf("ps: shard server %d does not hold the keys placed on it: %w", i, err)
		}
		s.sel[i] = p.positions(i)
		for _, pos := range s.sel[i] {
			s.dims[pos] = m.Dims[p.keys[pos]]
		}
	}
	return s, nil
}

// Exchange is one wave's conversation with the parameter servers: it pushes
// push (when non-nil) and pulls pull (when non-nil), each one vector per
// placed key in placement order, with one exchange per shard server — see
// Server.Exchange for what each server does with its share. Every server
// receives the push, ones holding no keys an empty one, so their clocks stay
// aligned (WSP's global clock is the minimum across all shards); only
// servers holding keys are asked for the pull, all answering from the same
// clock boundary, so the merged result is the deterministic snapshot the WSP
// analysis reasons about.
//
// The whole exchange is validated (worker range, vector counts, lengths)
// before a byte is sent, so a REJECTED exchange leaves every shard's clock
// untouched — no server can refuse what its peers already accepted. A
// failure part-way (a TCP server dying between shards) can still leave the
// clocks skewed; there is no unpush, so callers must treat that error as
// poisoning the run (internal/cluster closes every server, which unblocks
// and fails all peers). Clients whose request went out but whose response
// was not read are closed, and stay failed.
func (s *Sharded) Exchange(push *Push, pull *SnapshotPull) error {
	if err := s.validate(push, pull); err != nil {
		return err
	}
	if srv, err := s.scatterGather(push, pull); err != nil {
		return fmt.Errorf("ps: shard server %d: %w", srv, err)
	}
	return nil
}

// validate checks an exchange against the placement and the servers' Meta.
// Unannotated because its fmt formatting runs only on the error path.
func (s *Sharded) validate(push *Push, pull *SnapshotPull) error {
	if pull != nil && len(pull.Dst) != len(s.dims) {
		return fmt.Errorf("ps: pull into %d destinations from a layout of %d shards", len(pull.Dst), len(s.dims))
	}
	if push == nil {
		return nil
	}
	if push.Worker < 0 || push.Worker >= s.workers {
		return fmt.Errorf("ps: worker %d out of range [0,%d)", push.Worker, s.workers)
	}
	if len(push.Vecs) != len(s.dims) {
		return fmt.Errorf("ps: push of %d vectors to a layout of %d shards", len(push.Vecs), len(s.dims))
	}
	for i, n := range s.dims {
		if len(push.Vecs[i]) != n {
			return fmt.Errorf("ps: shard %q length %d, delta length %d", s.placement.keys[i], n, len(push.Vecs[i]))
		}
	}
	return nil
}

// share is server i's part of an exchange: the push whenever there is one,
// the pull only when the server holds keys.
//
//hetlint:hotpath
func (s *Sharded) share(i int, push *Push, pull *SnapshotPull) (*Push, *SnapshotPull) {
	if len(s.sel[i]) == 0 {
		pull = nil
	}
	return push, pull
}

// scatterGather runs the exchange: every TCP backend's request is written,
// then every backend is answered in server order — a TCP backend by reading
// its response, an in-process one by running its exchange. On failure it
// reports the failing server, after abandoning every client still owed a
// response.
//
//hetlint:hotpath
func (s *Sharded) scatterGather(push *Push, pull *SnapshotPull) (int, error) {
	sent := 0 // clients[:sent] with a share have a request on the wire
	for ; sent < len(s.clients); sent++ {
		p, q := s.share(sent, push, pull)
		if c := s.clients[sent]; c != nil && (p != nil || q != nil) {
			if err := c.sendWave(p, q, s.sel[sent]); err != nil {
				s.abandon(push, pull, 0, sent)
				return sent, err
			}
		}
	}
	for i, srv := range s.servers {
		p, q := s.share(i, push, pull)
		if p == nil && q == nil {
			continue
		}
		var err error
		if c := s.clients[i]; c != nil {
			_, err = c.receiveWave(p, q, s.sel[i])
		} else {
			_, err = srv.exchange(p, q, s.sel[i], nil)
		}
		if err != nil {
			s.abandon(push, pull, i+1, sent)
			return i, err
		}
	}
	return 0, nil
}

// abandon closes the clients in [from, to) that were sent a request whose
// response will now never be read.
func (s *Sharded) abandon(push *Push, pull *SnapshotPull, from, to int) {
	for i := from; i < to; i++ {
		if p, q := s.share(i, push, pull); s.clients[i] != nil && (p != nil || q != nil) {
			s.clients[i].abandon()
		}
	}
}

// PushOrdered pushes worker's update, vecs[i] being keys[i]'s delta, to
// every server: Exchange with no pull section. keys must be the placement's
// keys in placement order.
func (s *Sharded) PushOrdered(worker int, keys []string, vecs []tensor.Vector) error {
	if err := checkLayout(keys, s.placement.keys); err != nil {
		return err
	}
	return s.Exchange(&Push{Worker: worker, Vecs: vecs}, nil)
}

// PullAtInto gathers the clock-versioned snapshot, each involved server
// blocking until its global clock reaches `clock`, filling dst[i] with
// keys[i]'s weights (reusing dst[i]'s storage when its length matches):
// Exchange with no push section. keys must be the placement's keys in
// placement order.
func (s *Sharded) PullAtInto(dst []tensor.Vector, keys []string, clock int) error {
	if err := checkLayout(keys, s.placement.keys); err != nil {
		return err
	}
	return s.Exchange(nil, &SnapshotPull{Clock: clock, Dst: dst})
}
