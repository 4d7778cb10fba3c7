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
// Backend is what Sharded needs of the first two). PushOrdered and
// PullAtInto are its half-empty cases; all three move weights through
// caller-owned slices with no per-call map traffic. Every exchange is served
// in one order, in process and over TCP alike: validate both sections, commit
// the push, wait for the pull's clock, answer — so an exchange that has
// returned is already in the server's clocks. A server keeps one flat
// vector per global-clock boundary and serves every pull — fused or not, in
// process or over TCP — from it under its lock; there is no read of the
// "latest" weights, whose value would depend on push arrival order.
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

// waveUpdate is one worker's retained aggregated update for one wave: the
// pushed keys in push order, with every delta packed back-to-back in a
// single backing allocation (offsets are implied by the registered shard
// lengths). It replaces the old per-(wave,worker) map of per-key clones —
// one allocation per push instead of one per key.
type waveUpdate struct {
	keys    []string
	backing tensor.Vector
}

// span is one key's range in the flat snapshot layout.
type span struct{ off, n int }

// Push is the push section of an Exchange: worker Worker's aggregated wave
// update as parallel key and delta slices (wglobal += u~ per shard). The
// caller keeps ownership of both slices.
type Push struct {
	Worker int
	Keys   []string
	Vecs   []tensor.Vector
}

// SnapshotPull is the pull section of an Exchange: the snapshot of Keys as
// of global-clock boundary Clock — the initial weights plus every wave-v
// update with v < Clock from every worker, whatever order the pushes arrived
// in. Dst[i] receives Keys[i], reusing Dst[i]'s storage when its length
// already matches.
type SnapshotPull struct {
	Clock int
	Keys  []string
	Dst   []tensor.Vector
}

// visit implements vecSink for in-process exchanges: copy into Dst.
//
//hetlint:hotpath
func (p *SnapshotPull) visit(i int, v tensor.Vector) {
	if len(p.Dst[i]) != len(v) {
		p.Dst[i] = make(tensor.Vector, len(v))
	}
	copy(p.Dst[i], v)
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
	// initial holds the registered starting weights, the clock-0 snapshot;
	// its keys and lengths are the shard layout every request is checked
	// against.
	initial map[string]tensor.Vector
	// clocks holds each worker's pushed-wave count, the global clock and
	// the largest clock distance observed at any push.
	clocks wsp.Clocks
	// waveDeltas[(v-deltaBase)*W+w] is worker w's aggregated update of wave
	// v (zero until pushed), stored flat so pushing a new wave costs
	// amortized-zero bookkeeping allocations. deltaBase is the newest
	// snapshot's clock (0 before the first): every older wave is folded, and
	// the table is compacted down to deltaBase after each fold, so it holds
	// only the waves pushed ahead of the newest snapshot — at most (D+2)·W
	// entries under WSP. snapshots[c-base] is the materialized clock-c
	// snapshot, built lazily from waveDeltas in (wave, worker) order so the
	// result does not depend on push arrival order; base is the server's
	// floor, below which Release has recycled them. A snapshot is one flat
	// vector holding every shard back to back in sorted-key order; spans
	// gives each key's range. The layout is fixed when the first snapshot is
	// built (spans is nil until then), after which Register fails.
	waveDeltas []waveUpdate
	deltaBase  int
	snapshots  []tensor.Vector
	base       int
	spans      map[string]span
	// internedKeys is the key slice of the most recent push. Workers push
	// the same key set wave after wave, so retained waveUpdates share one
	// server-owned slice instead of cloning the caller's per push; the
	// aligned shard lengths and their sum ride along so a repeat keyset
	// skips the map lookups and the duplicate scan entirely.
	internedKeys  []string
	internedLens  []int
	internedTotal int
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
// an existing key fails, and so does registering any key once a snapshot has
// been built — shard layout is fixed before training, and a key added later
// would be one no snapshot holds.
func (s *Server) Register(key string, init []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.initial[key]; ok {
		return fmt.Errorf("ps: shard %q already registered", key)
	}
	if s.spans != nil {
		return fmt.Errorf("ps: shard %q registered after the snapshot layout was fixed", key)
	}
	s.initial[key] = tensor.Vector(init).Clone()
	return nil
}

// Exchange is the data plane's one operation: an optional push and an
// optional snapshot pull, executed as a unit. Both sections are validated in
// full — worker range, shard existence, lengths, duplicate keys, the pull's
// keys — before any weight is touched, so a rejected exchange leaves the
// server unchanged. Then the push commits (waking blocked pulls), and only
// then does the pull wait for the global clock to reach pull.Clock: a worker
// never waits on a clock while holding back the push its peers wait for,
// which is what keeps D = 0 free of deadlock (and what a clock-w+1 snapshot
// that must contain this worker's own wave w needs). It returns the worker's
// new clock when it pushed, 0 otherwise.
func (s *Server) Exchange(push *Push, pull *SnapshotPull) (int, error) {
	if pull == nil {
		return s.exchange(push, nil, nil)
	}
	if len(pull.Dst) != len(pull.Keys) {
		return 0, fmt.Errorf("ps: %d destinations for %d keys", len(pull.Dst), len(pull.Keys))
	}
	return s.exchange(push, pull, pull)
}

// PushOrdered applies worker w's aggregated wave update and advances w's
// clock, returning the new clock: Exchange with no pull section.
func (s *Server) PushOrdered(w int, keys []string, vecs []tensor.Vector) (int, error) {
	return s.exchange(&Push{Worker: w, Keys: keys, Vecs: vecs}, nil, nil)
}

// vecSink receives weight vectors during a locked pull. The TCP transport
// implements it to encode responses straight from server-owned storage — no
// intermediate clone, no map; *SnapshotPull implements it to copy into the
// caller's destinations. The vector passed to visit is only valid for the
// duration of the call.
type vecSink interface {
	visit(i int, v tensor.Vector)
}

// exchange is Exchange with the snapshot's vectors handed to sink (in key
// order, under the server lock) instead of copied into pull.Dst.
//
//hetlint:hotpath
func (s *Server) exchange(push *Push, pull *SnapshotPull, sink vecSink) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pull != nil && pull.Clock < 0 {
		return 0, errNegativeClock(pull.Clock)
	}
	if pull != nil && pull.Clock < s.base {
		return 0, errReleased(pull.Clock, s.base)
	}
	clock := 0
	if push != nil {
		if err := s.validatePushLocked(push); err != nil {
			return 0, err
		}
		if pull != nil {
			// Nothing may fail between the commit and the answer but the
			// server closing, so the pull's keys are checked up front too.
			for _, key := range pull.Keys {
				if _, ok := s.initial[key]; !ok {
					return 0, errUnregisteredPull(key)
				}
			}
		}
		clock = s.commitPushLocked(push)
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
	for i, key := range pull.Keys {
		sp, ok := s.spans[key]
		if !ok {
			return 0, errUnregisteredPull(key)
		}
		sink.visit(i, snap[sp.off:sp.off+sp.n])
	}
	s.pulls++
	return clock, nil
}

// errClosed is what a pull blocked on (or arriving at) a closed server gets.
var errClosed = errors.New("ps: server closed")

// ErrReleased is what a pull or a capture of a clock below a server's floor
// gets (see Release); match with errors.Is, over TCP as in process.
var ErrReleased = errors.New("ps: snapshot clock released")

// The error constructors below keep fmt out of the annotated hot paths; they
// only run when a request is rejected.

func errNegativeClock(c int) error {
	return fmt.Errorf("ps: negative snapshot clock %d", c)
}

func errReleased(c, floor int) error {
	return fmt.Errorf("%w: clock %d is below the server's floor %d", ErrReleased, c, floor)
}

func errUnregisteredPull(key string) error {
	return fmt.Errorf("ps: pull of unregistered shard %q", key)
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

// validatePushLocked checks a push — worker index, keyset (interning a new
// one), per-shard lengths. Unannotated because its fmt formatting runs only
// on the error path.
func (s *Server) validatePushLocked(p *Push) error {
	if len(p.Keys) != len(p.Vecs) {
		return fmt.Errorf("ps: %d keys for %d vectors", len(p.Keys), len(p.Vecs))
	}
	if p.Worker < 0 || p.Worker >= s.clocks.Workers() {
		return fmt.Errorf("ps: worker %d out of range [0,%d)", p.Worker, s.clocks.Workers())
	}
	if !keysEqual(s.internedKeys, p.Keys) {
		if err := s.internPushKeys(p.Keys); err != nil {
			return err
		}
	}
	// The interned lengths are aligned with the keys; only the per-vector
	// lengths still need checking on a repeat keyset.
	for i, n := range s.internedLens {
		if n != len(p.Vecs[i]) {
			return fmt.Errorf("ps: shard %q length %d, delta length %d", p.Keys[i], n, len(p.Vecs[i]))
		}
	}
	return nil
}

// commitPushLocked applies a push validatePushLocked has just accepted (the
// interned keyset is p's): the deltas are copied into the wave's one
// retained backing, which the snapshot fold reads, the worker's clock
// advances, and blocked pulls wake. It returns the worker's new clock.
//
//hetlint:hotpath
func (s *Server) commitPushLocked(p *Push) int {
	w := p.Worker
	// A worker's clock is at least the global clock, which is at least the
	// newest snapshot's: its wave is never below deltaBase.
	workers := s.clocks.Workers()
	wave := s.clocks.Clock(w) - s.deltaBase
	need := (wave + 1) * workers
	for len(s.waveDeltas) < need {
		s.waveDeltas = append(s.waveDeltas, waveUpdate{})
	}
	u := &s.waveDeltas[wave*workers+w]
	u.keys = s.internedKeys
	u.backing = s.takeBacking(s.internedTotal)
	off := 0
	for _, v := range p.Vecs {
		off += copy(u.backing[off:], v)
	}
	clock := s.clocks.Push(w)
	s.pushes++
	s.cond.Broadcast()
	return clock
}

//hetlint:hotpath
func keysEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// internPushKeys validates a new push keyset — shard existence, duplicate
// keys — and caches a server-owned copy with the aligned shard lengths.
// Workers push the same shard set wave after wave, so this runs once per
// keyset change, not per push; retained waveUpdates share the server-owned
// slice and never alias caller memory (callers recycle their slices).
func (s *Server) internPushKeys(keys []string) error {
	for i, key := range keys {
		if _, ok := s.initial[key]; !ok {
			return fmt.Errorf("ps: push to unregistered shard %q", key)
		}
		for j := 0; j < i; j++ {
			if keys[j] == key {
				return fmt.Errorf("ps: duplicate shard %q in push", key)
			}
		}
	}
	s.internedKeys = append([]string(nil), keys...)
	s.internedLens = make([]int, len(keys))
	s.internedTotal = 0
	for i, key := range keys {
		s.internedLens[i] = len(s.initial[key])
		s.internedTotal += s.internedLens[i]
	}
	return nil
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

// PullAtInto copies the requested shards as of global-clock boundary
// `clock` into dst (dst[i] receives keys[i], reusing dst[i]'s storage when its
// length already matches), blocking until the global clock reaches `clock`:
// Exchange with no push section. The result is independent of push arrival
// order: the deterministic read the WSP staleness analysis reasons about, and
// the one the live training runtime uses so its trajectory matches the
// simulator's.
func (s *Server) PullAtInto(dst []tensor.Vector, keys []string, clock int) error {
	_, err := s.Exchange(nil, &SnapshotPull{Clock: clock, Keys: keys, Dst: dst})
	return err
}

// fixLayoutLocked fixes the flat snapshot layout: every registered shard
// back to back in sorted-key order.
func (s *Server) fixLayoutLocked() {
	keys := make([]string, 0, len(s.initial))
	for k := range s.initial {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s.spans = make(map[string]span, len(keys))
	off := 0
	for _, k := range keys {
		s.spans[k] = span{off, len(s.initial[k])}
		off += len(s.initial[k])
	}
}

// packLocked lays a per-key weight map out as one flat snapshot.
func (s *Server) packLocked(m map[string]tensor.Vector) tensor.Vector {
	total := 0
	for _, sp := range s.spans {
		total += sp.n
	}
	flat := make(tensor.Vector, total)
	for k, sp := range s.spans {
		copy(flat[sp.off:sp.off+sp.n], m[k])
	}
	return flat
}

// unpackLocked is packLocked's inverse, as a deep copy.
func (s *Server) unpackLocked(flat tensor.Vector) map[string]tensor.Vector {
	m := make(map[string]tensor.Vector, len(s.spans))
	for k, sp := range s.spans {
		m[k] = flat[sp.off : sp.off+sp.n].Clone()
	}
	return m
}

// snapshotLocked materializes (and retains) the clock-c weight snapshot, c
// at or above the floor. The global clock must have reached c, so every wave
// < c is fully pushed — a pull has just waited for exactly that, and
// Capture's cut is a global clock already reached. Each new clock costs one
// copy of its predecessor into a recycled vector; deltas are folded in
// (wave, worker) order, never arrival order. It is the one place a wave
// delta becomes weights.
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
			off := 0
			for _, k := range u.keys {
				sp := s.spans[k]
				next[sp.off : sp.off+sp.n].AddInPlace(u.backing[off : off+sp.n])
				off += sp.n
			}
			// This fold is the only reader of the wave's per-worker deltas;
			// their backings go to later pushes.
			s.recycleLocked(u.backing)
			*u = waveUpdate{}
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
// registered shard keys with their lengths. The sharded client fetches it
// once to validate pushes before any shard's clock can advance.
type Meta struct {
	Workers int
	Dims    map[string]int
}

// Meta reports the server's shard layout and worker count.
func (s *Server) Meta() (Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Meta{Workers: s.clocks.Workers(), Dims: make(map[string]int, len(s.initial))}
	for k, v := range s.initial {
		m.Dims[k] = len(v)
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
