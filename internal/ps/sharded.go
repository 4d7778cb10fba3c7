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
	backends  []Backend
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
// *Client over TCP; its unexported methods admit no other. An exchange is
// two-phase, so Sharded can put every shard's request on the wire before it
// reads the first response: sendWave starts it (a Server has nothing to
// send), receiveWave finishes it with the same wave (a Server answers the
// whole exchange there), and abandon drops one that was sent but will not be
// received.
type Backend interface {
	Meta() (Meta, error)
	sendWave(w wave) error
	receiveWave(w wave) (int, error)
	abandon()
}

// wave is one exchange as a server sees it: each section by value, present
// when its flag says so, its slices read through sel (see at). By value,
// because an interface call's pointer arguments escape, and a caller's Push
// or SnapshotPull must not move to the heap.
type wave struct {
	push          Push
	pull          SnapshotPull
	pushes, pulls bool
	sel           []int
}

// newWave is the wave of sections push and pull (nil when absent), read
// through sel.
//
//hetlint:hotpath
func newWave(push *Push, pull *SnapshotPull, sel []int) wave {
	w := wave{sel: sel}
	if push != nil {
		w.push, w.pushes = *push, true
	}
	if pull != nil {
		w.pull, w.pulls = *pull, true
	}
	return w
}

// at is the position in a section's slice of layout key j: sel[j] when the
// caller's slices are in another order (Sharded's placement order), j when
// sel is nil.
//
//hetlint:hotpath
func (w *wave) at(j int) int {
	if w.sel == nil {
		return j
	}
	return w.sel[j]
}

// count is how many layout keys a section's slice covers, read through sel.
//
//hetlint:hotpath
func (w *wave) count(vs []tensor.Vector) int {
	if w.sel == nil {
		return len(vs)
	}
	return len(w.sel)
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
		backends:  backends,
		sel:       make([][]int, len(backends)),
		dims:      make([]int, len(p.keys)),
	}
	for i, b := range backends {
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
	return s.scatterGather(push, pull)
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

// share is server i's part of an exchange — the push whenever there is one,
// the pull only when the server holds keys — and whether it has any.
//
//hetlint:hotpath
func (s *Sharded) share(i int, push *Push, pull *SnapshotPull) (wave, bool) {
	if len(s.sel[i]) == 0 {
		pull = nil
	}
	return newWave(push, pull, s.sel[i]), push != nil || pull != nil
}

// scatterGather runs the exchange: every backend with a share is sent its
// request, then every one is answered in server order — a TCP backend by
// reading its response, an in-process one by running its exchange.
//
//hetlint:hotpath
func (s *Sharded) scatterGather(push *Push, pull *SnapshotPull) error {
	sent := 0 // backends[:sent] with a share have been sent their request
	for ; sent < len(s.backends); sent++ {
		if w, ok := s.share(sent, push, pull); ok {
			if err := s.backends[sent].sendWave(w); err != nil {
				return s.fail(sent, err, push, pull, 0, sent)
			}
		}
	}
	for i, b := range s.backends {
		if w, ok := s.share(i, push, pull); ok {
			if _, err := b.receiveWave(w); err != nil {
				return s.fail(i, err, push, pull, i+1, sent)
			}
		}
	}
	return nil
}

// fail ends an exchange that server srv failed with err: it abandons the
// backends in [from, to), which were sent a request whose response will now
// never be read, and names the server in the error.
func (s *Sharded) fail(srv int, err error, push *Push, pull *SnapshotPull, from, to int) error {
	for i := from; i < to; i++ {
		if _, ok := s.share(i, push, pull); ok {
			s.backends[i].abandon()
		}
	}
	return fmt.Errorf("ps: shard server %d: %w", srv, err)
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
