// Package ps implements the parameter-server substrate HetPipe synchronizes
// through: a sharded key-value store of weight vectors with WSP clock
// semantics.
//
// Each virtual worker pushes one aggregated update per wave (Section 5); the
// server applies updates to the global weights and advances the global clock
// cglobal to c+1 once every worker has pushed wave c. A server's clocks — each
// worker's pushed-wave count, the global clock, the largest clock distance —
// are a wsp.Clocks ledger held under its lock. Pulls may specify a
// minimum global clock and block until the server reaches it — that is the
// D-bound wait, which the caller overlaps with pipelined execution.
//
// The store is usable in process (Server methods are goroutine-safe) or over
// TCP with a length-prefixed binary wire protocol (see wire.go, and Serve
// and Dial in transport.go), mirroring how the paper spreads parameter
// shards across nodes. The data plane has one operation, Exchange: a wave's
// push and the D-gated snapshot pull that follows it travel as one request
// and one response per shard server (Server, Client and Sharded all have it;
// Backend is what Sharded is built over). An exchange always covers every
// shard its server holds, in the server's layout: its keys sorted. So no key
// travels with an exchange — a push is a worker and one vector per layout
// key, a pull a clock and one destination per layout key — and Sharded, whose
// layout is its placement's key order, maps that order onto each server's
// once, at construction. Client and Sharded also have PushOrdered and
// PullAtInto, its half-empty cases, which take the keys and refuse any but
// the whole layout in order. Every exchange is served in one order, in
// process and over TCP alike: validate both sections, commit the push, wait
// for the pull's clock, answer — so an exchange that has returned is already
// in the server's clocks. A server keeps one flat vector per global-clock
// boundary and serves every pull — fused or not, in process or over TCP —
// from it under its lock; there is no read of the "latest" weights, whose
// value would depend on push arrival order.
//
// Those snapshots are the server's whole state, kept as a window: the run
// that owns a server tells it, through Release, the lowest clock any worker
// may still pull (its floor), and the snapshots below it are recycled into
// later folds and pushes. WSP's clock-distance bound D keeps a floored
// window about D+2 clocks wide however long the run; a server that is never
// released keeps every clock. A pull or capture below the floor fails with
// ErrReleased. A checkpoint holds the snapshots and nothing else
// (checkpoint.go): Capture cuts a set of shard servers at the minimum of
// their global clocks c and keeps each server's snapshots 0..c (so it needs
// servers that have released nothing), SaveCheckpoint writes them atomically
// (temp file + rename, versioned header), and a server restored from the
// file serves bit-identical snapshots — the substrate crash recovery and run
// resumption (internal/cluster) build on.
package ps

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hetpipe/internal/tensor"
	"hetpipe/internal/wsp"
)

// Push is the push section of an Exchange: worker Worker's aggregated wave
// update, one delta per layout key in layout order (wglobal += u~ per
// shard). The caller keeps ownership of the slice.
type Push struct {
	Worker int
	Vecs   []tensor.Vector
}

// SnapshotPull is the pull section of an Exchange: the snapshot as of
// global-clock boundary Clock — the initial weights plus every wave-v update
// with v < Clock from every worker, whatever order the pushes arrived in.
// Dst[i] receives the i-th layout key's weights, reusing Dst[i]'s storage
// when its length already matches.
type SnapshotPull struct {
	Clock int
	Dst   []tensor.Vector
}

// Server is one parameter-server shard host: a set of named weight vectors
// plus WSP clock state for its workers. The snapshots below are its only
// copy of the weights.
//
// The server retains clock-versioned snapshots: the weights as of each
// global-clock boundary c, defined as the initial weights plus every wave-v
// update with v < c, regardless of push arrival order. A pull reads such a
// snapshot, which makes the value it observes a deterministic function of the
// update schedule — the property the sim-vs-live conformance harness
// (internal/cluster) relies on.
// Materialized snapshots are retained from the server's floor up (one flat
// weight copy per clock boundary; per-wave deltas are recycled once folded).
// The server cannot know which old boundary a lagging worker may still
// demand, so the floor is its owner's to raise (Release); until it does,
// every clock is kept. The newest snapshot is always kept, since the next
// clock is folded from it.
type Server struct {
	mu   sync.Mutex
	cond *sync.Cond
	// initial holds the registered starting weights, the clock-0 snapshot.
	initial map[string]tensor.Vector
	// keys is the layout every exchange covers: the registered keys, sorted;
	// key j's range in a flat vector is offs[j]:offs[j+1]. Both are nil
	// until the layout is fixed — by the first Meta, exchange or snapshot —
	// after which Register fails.
	keys []string
	offs []int
	// clocks holds each worker's pushed-wave count, the global clock and
	// the largest clock distance observed at any push.
	clocks wsp.Clocks
	// waveDeltas[(v-deltaBase)*W+w] is worker w's aggregated update of wave
	// v (nil until pushed), one flat vector in layout order, stored flat so
	// pushing a new wave costs amortized-zero bookkeeping allocations.
	// deltaBase is the newest snapshot's clock (0 before the first): every
	// older wave is folded, and the table is compacted down to deltaBase
	// after each fold, so it holds only the waves pushed ahead of the newest
	// snapshot — at most (D+2)·W entries under WSP. snapshots[c-base] is the
	// materialized clock-c snapshot, one flat vector in layout order, built
	// lazily from waveDeltas in (wave, worker) order so the result does not
	// depend on push arrival order; base is the server's floor, below which
	// Release has recycled them.
	waveDeltas []tensor.Vector
	deltaBase  int
	snapshots  []tensor.Vector
	base       int
	// freeBackings recycles the backing arrays of folded wave deltas and of
	// released snapshots into later pushes and folds: in the steady state
	// (pulls folding waves as pushes land, the floor rising behind them) a
	// push and a new clock cost zero backing allocations, and a recycled
	// array is fully overwritten so it never needs re-zeroing.
	freeBackings []tensor.Vector
	pushes       uint64
	pulls        uint64
	// frames counts the request frames the TCP transport has served — the
	// round trips of the run, where pushes and pulls count logical operations
	// (a fused wave frame is one of each). Atomic for the same reason as
	// malformed.
	frames atomic.Uint64
	// malformed counts protocol-level garbage seen by the TCP transport:
	// bad preambles, truncated or oversized frames, undecodable requests.
	// Atomic because connection goroutines bump it without taking mu.
	malformed atomic.Uint64
	closed    bool
}

// NewServer creates a server expecting pushes from n workers.
func NewServer(n int) (*Server, error) {
	if n < 1 {
		return nil, fmt.Errorf("ps: need at least one worker, got %d", n)
	}
	s := &Server{initial: make(map[string]tensor.Vector)}
	s.clocks.Reset(n, 0, 0)
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Register installs a named weight vector with initial values. Registering
// an existing key fails, and so does registering any key once the layout is
// fixed — shard layout is fixed before training, and a key added later
// would be one no exchange or snapshot holds.
func (s *Server) Register(key string, init []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.initial[key]; ok {
		return fmt.Errorf("ps: shard %q already registered", key)
	}
	if s.offs != nil {
		return fmt.Errorf("ps: shard %q registered after the layout was fixed", key)
	}
	s.initial[key] = tensor.Vector(init).Clone()
	return nil
}

// Exchange is the data plane's one operation: an optional push and an
// optional snapshot pull, executed as a unit, each covering the server's
// whole layout. Both sections are validated in full — worker range, vector
// counts, lengths, the pull's clock — before any weight is touched, so a
// rejected exchange leaves the server unchanged. Then the push commits
// (waking blocked pulls), and only then does the pull wait for the global
// clock to reach pull.Clock: a worker never waits on a clock while holding
// back the push its peers wait for, which is what keeps D = 0 free of
// deadlock (and what a clock-w+1 snapshot that must contain this worker's
// own wave w needs). It returns the worker's new clock when it pushed, 0
// otherwise.
func (s *Server) Exchange(push *Push, pull *SnapshotPull) (int, error) {
	return s.exchange(push, pull, nil, nil)
}

// at is the position in a caller's slice of layout key j: sel[j] when the
// caller's slices are in another order (Sharded's placement order), j when
// sel is nil.
//
//hetlint:hotpath
func at(sel []int, j int) int {
	if sel == nil {
		return j
	}
	return sel[j]
}

// count is how many layout keys a section's slice covers, read through sel.
//
//hetlint:hotpath
func count(vs []tensor.Vector, sel []int) int {
	if sel == nil {
		return len(vs)
	}
	return len(sel)
}

// exchange is Exchange with the caller's slices read through sel (see at)
// and, when out is non-nil, the snapshot's vectors encoded into out (in
// layout order, under the server lock) instead of copied into pull.Dst —
// the TCP transport's response, whose client checked its own destinations.
//
//hetlint:hotpath
func (s *Server) exchange(push *Push, pull *SnapshotPull, sel []int, out *encoder) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fixLayoutLocked()
	// Nothing may fail between the commit and the answer but the server
	// closing, so the pull is checked up front too.
	if err := s.validateLocked(push, pull, sel, out == nil); err != nil {
		return 0, err
	}
	clock := 0
	if push != nil {
		clock = s.commitPushLocked(push, sel)
	}
	if pull == nil {
		return clock, nil
	}
	for s.clocks.GlobalClock() < pull.Clock && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return 0, errClosed
	}
	// Checked again after the wait: a floor raised past a clock the caller
	// had not yet reached is the caller's contract broken, answered with an
	// error, never an index out of range.
	if pull.Clock < s.base {
		return 0, errReleased(pull.Clock, s.base)
	}
	snap := s.snapshotLocked(pull.Clock)
	for j := range s.keys {
		v := snap[s.offs[j]:s.offs[j+1]]
		if out != nil {
			out.vec(v)
			continue
		}
		i := at(sel, j)
		if len(pull.Dst[i]) != len(v) {
			pull.Dst[i] = make(tensor.Vector, len(v))
		}
		copy(pull.Dst[i], v)
	}
	s.pulls++
	return clock, nil
}

// validateLocked checks an exchange's sections against the layout: the
// pull's clock (and, unless the caller checked its own, its destination
// count), the push's worker, vector count and lengths. Unannotated because
// its fmt formatting runs only on the error path.
func (s *Server) validateLocked(push *Push, pull *SnapshotPull, sel []int, dst bool) error {
	if pull != nil {
		if pull.Clock < 0 {
			return fmt.Errorf("ps: negative snapshot clock %d", pull.Clock)
		}
		if pull.Clock < s.base {
			return errReleased(pull.Clock, s.base)
		}
		if n := count(pull.Dst, sel); dst && n != len(s.keys) {
			return fmt.Errorf("ps: pull into %d destinations from a layout of %d shards", n, len(s.keys))
		}
	}
	if push == nil {
		return nil
	}
	if push.Worker < 0 || push.Worker >= s.clocks.Workers() {
		return fmt.Errorf("ps: worker %d out of range [0,%d)", push.Worker, s.clocks.Workers())
	}
	if n := count(push.Vecs, sel); n != len(s.keys) {
		return fmt.Errorf("ps: push of %d vectors to a layout of %d shards", n, len(s.keys))
	}
	for j, key := range s.keys {
		if n, got := s.offs[j+1]-s.offs[j], len(push.Vecs[at(sel, j)]); n != got {
			return fmt.Errorf("ps: shard %q length %d, delta length %d", key, n, got)
		}
	}
	return nil
}

// errClosed is what a pull blocked on (or arriving at) a closed server gets.
var errClosed = errors.New("ps: server closed")

// ErrReleased is what a pull or a capture of a clock below a server's floor
// gets (see Release); match with errors.Is, over TCP as in process.
var ErrReleased = errors.New("ps: snapshot clock released")

// errReleased keeps fmt out of the annotated hot path; it only runs when a
// request is rejected.
func errReleased(c, floor int) error {
	return fmt.Errorf("%w: clock %d is below the server's floor %d", ErrReleased, c, floor)
}

// takeBacking returns a length-n vector for a retained wave delta or a new
// snapshot, reusing a recycled backing when one is large enough. Callers
// overwrite every element, so recycled arrays are handed back without
// zeroing.
//
//hetlint:hotpath
func (s *Server) takeBacking(n int) tensor.Vector {
	for i := len(s.freeBackings) - 1; i >= 0; i-- {
		if b := s.freeBackings[i]; cap(b) >= n {
			s.freeBackings[i] = s.freeBackings[len(s.freeBackings)-1]
			s.freeBackings[len(s.freeBackings)-1] = nil
			s.freeBackings = s.freeBackings[:len(s.freeBackings)-1]
			return b[:n]
		}
	}
	return make(tensor.Vector, n)
}

// recycleLocked hands a vector the server is done with to later pushes and
// folds. The pool is bounded: a steady-state wave frees one backing per
// worker and one snapshot, and uses as many; beyond that GC takes them.
//
//hetlint:hotpath
func (s *Server) recycleLocked(v tensor.Vector) {
	if v != nil && len(s.freeBackings) <= s.clocks.Workers() {
		s.freeBackings = append(s.freeBackings, v)
	}
}

// commitPushLocked applies a push validateLocked has just accepted: the
// deltas are copied, in layout order, into the wave's one retained backing,
// which the snapshot fold reads, the worker's clock advances, and blocked
// pulls wake. It returns the worker's new clock.
//
//hetlint:hotpath
func (s *Server) commitPushLocked(p *Push, sel []int) int {
	w := p.Worker
	// A worker's clock is at least the global clock, which is at least the
	// newest snapshot's: its wave is never below deltaBase.
	workers := s.clocks.Workers()
	wave := s.clocks.Clock(w) - s.deltaBase
	for need := (wave + 1) * workers; len(s.waveDeltas) < need; {
		s.waveDeltas = append(s.waveDeltas, nil)
	}
	backing := s.takeBacking(s.offs[len(s.keys)])
	for j := range s.keys {
		copy(backing[s.offs[j]:], p.Vecs[at(sel, j)])
	}
	s.waveDeltas[wave*workers+w] = backing
	clock := s.clocks.Push(w)
	s.pushes++
	s.cond.Broadcast()
	return clock
}

// MaxClockDistance reports the largest max-min clock spread across workers
// observed at any push — the same ledger the WSP coordinator keeps, used to
// check the D+1 bound. It and GlobalClock are read
// in process only; the wire has no query for either.
func (s *Server) MaxClockDistance() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clocks.MaxClockDistance()
}

// GlobalClock reports min over workers of pushed waves.
func (s *Server) GlobalClock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clocks.GlobalClock()
}

// fixLayoutLocked fixes the layout, once: every registered shard back to
// back in sorted-key order.
func (s *Server) fixLayoutLocked() {
	if s.offs != nil {
		return
	}
	s.keys = make([]string, 0, len(s.initial))
	for k := range s.initial {
		s.keys = append(s.keys, k)
	}
	sort.Strings(s.keys)
	s.offs = make([]int, 1, len(s.keys)+1)
	for _, k := range s.keys {
		s.offs = append(s.offs, s.offs[len(s.offs)-1]+len(s.initial[k]))
	}
}

// packLocked lays a per-key weight map out as one flat snapshot.
func (s *Server) packLocked(m map[string]tensor.Vector) tensor.Vector {
	flat := make(tensor.Vector, s.offs[len(s.keys)])
	for j, k := range s.keys {
		copy(flat[s.offs[j]:s.offs[j+1]], m[k])
	}
	return flat
}

// unpackLocked is packLocked's inverse, as a deep copy.
func (s *Server) unpackLocked(flat tensor.Vector) map[string]tensor.Vector {
	m := make(map[string]tensor.Vector, len(s.keys))
	for j, k := range s.keys {
		m[k] = flat[s.offs[j]:s.offs[j+1]].Clone()
	}
	return m
}

// snapshotLocked materializes (and retains) the clock-c weight snapshot, c
// at or above the floor. The global clock must have reached c, so every wave
// < c is fully pushed — a pull has just waited for exactly that, and
// Capture's cut is a global clock already reached. Each new clock costs one
// copy of its predecessor into a recycled vector and one add per worker,
// folded in (wave, worker) order, never arrival order. It is the one place a
// wave delta becomes weights.
func (s *Server) snapshotLocked(c int) tensor.Vector {
	if len(s.snapshots) == 0 {
		s.fixLayoutLocked()
		s.snapshots = append(s.snapshots, s.packLocked(s.initial))
	}
	workers := s.clocks.Workers()
	folded := 0
	for s.base+len(s.snapshots) <= c {
		prev := s.snapshots[len(s.snapshots)-1]
		next := s.takeBacking(len(prev))
		copy(next, prev)
		for i := range workers {
			u := &s.waveDeltas[folded*workers+i]
			next.AddInPlace(*u)
			// This fold is the only reader of the wave's per-worker deltas;
			// their backings go to later pushes.
			s.recycleLocked(*u)
			*u = nil
		}
		folded++
		s.snapshots = append(s.snapshots, next)
	}
	if folded > 0 {
		n := copy(s.waveDeltas, s.waveDeltas[folded*workers:])
		clear(s.waveDeltas[n:])
		s.waveDeltas = s.waveDeltas[:n]
		s.deltaBase += folded
	}
	return s.snapshots[c-s.base]
}

// Release raises the server's floor to floor: its owner promises that no
// pull or capture will ask for a clock below it again, and the snapshots
// below it are recycled. The newest snapshot is kept whatever the floor, as
// the base the next clock is folded from. A floor at or below the current
// one changes nothing, so releases may arrive out of order. A pull or
// capture below the floor fails with ErrReleased.
func (s *Server) Release(floor int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	drop := min(floor, s.base+len(s.snapshots)-1) - s.base
	if drop <= 0 {
		return
	}
	for _, v := range s.snapshots[:drop] {
		s.recycleLocked(v)
	}
	n := copy(s.snapshots, s.snapshots[drop:])
	clear(s.snapshots[n:])
	s.snapshots = s.snapshots[:n]
	s.base += drop
}

// Retained reports how many clock snapshots the server holds: the window
// from its floor to the newest clock materialized.
func (s *Server) Retained() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.snapshots)
}

// Meta describes a server to its clients: the expected worker count and the
// registered shard keys with their lengths. A client fetches it once to
// learn the layout its exchanges cover, so it can validate them before any
// shard's clock can advance.
type Meta struct {
	Workers int
	Dims    map[string]int
}

// layout lists the keys in layout order: sorted.
func (m Meta) layout() []string {
	keys := make([]string, 0, len(m.Dims))
	for k := range m.Dims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Meta reports the server's shard layout and worker count, fixing the
// layout: a client that has seen it can count on it.
func (s *Server) Meta() (Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fixLayoutLocked()
	m := Meta{Workers: s.clocks.Workers(), Dims: make(map[string]int, len(s.keys))}
	for j, k := range s.keys {
		m.Dims[k] = s.offs[j+1] - s.offs[j]
	}
	return m, nil
}

// Close wakes all blocked pulls with an error and marks the server down.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}

// Stats reports operation counters (pushes, pulls).
func (s *Server) Stats() (pushes, pulls uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushes, s.pulls
}

// FramesServed reports how many request frames the TCP transport has read
// and dispatched on this server's behalf — one per round trip, whatever the
// frame carried. Zero for a server only ever used in process.
func (s *Server) FramesServed() uint64 {
	return s.frames.Load()
}

// noteMalformed counts one protocol-level malformed request.
func (s *Server) noteMalformed() {
	s.malformed.Add(1)
}

// MalformedRequests reports how many protocol-level malformed requests the
// TCP transport has rejected on this server's behalf: bad preambles,
// truncated or oversized frames, and undecodable request payloads.
func (s *Server) MalformedRequests() uint64 {
	return s.malformed.Load()
}
