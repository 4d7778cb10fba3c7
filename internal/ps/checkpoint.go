package ps

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hetpipe/internal/tensor"
)

// Checkpoint file format constants. The header is decoded before the payload
// so a reader can reject foreign files and future versions with a precise
// error instead of a gob mismatch deep inside the state.
const (
	// CheckpointMagic identifies a hetpipe parameter-server checkpoint file.
	CheckpointMagic = "hetpipe-ps-checkpoint"
	// CheckpointVersion is the current on-disk format version.
	CheckpointVersion = 1
)

// ErrCheckpointVersion reports a checkpoint written by an incompatible format
// version; match with errors.Is.
var ErrCheckpointVersion = errors.New("ps: checkpoint version mismatch")

// ServerState is one shard server's complete, clock-versioned state: the
// registered initial weights, the current weights, every worker's clock, the
// per-wave deltas not yet folded into snapshots, and the materialized
// snapshots. It is a deep copy — mutating it never touches the server it was
// captured from.
type ServerState struct {
	Clocks      []int
	Initial     map[string]tensor.Vector
	Shards      map[string]tensor.Vector
	WaveDeltas  [][]map[string]tensor.Vector
	Snapshots   []map[string]tensor.Vector
	MaxDistance int
	Pushes      uint64
	Pulls       uint64
}

// globalClock is min over workers of pushed waves, like Server.GlobalClock.
func (st *ServerState) globalClock() int {
	min := st.Clocks[0]
	for _, c := range st.Clocks[1:] {
		if c < min {
			min = c
		}
	}
	return min
}

// validate checks internal consistency: every shard key registered in
// Initial must appear in Shards (and vice versa) with matching dimensions,
// snapshots must cover the same keys, and wave deltas must come from known
// workers and registered shards. A state violating this — a torn write, a
// hand-edited file, a shard lost in transit — is rejected before any server
// is built from it.
func (st *ServerState) validate() error {
	if len(st.Clocks) < 1 {
		return fmt.Errorf("ps: checkpoint server state has no workers")
	}
	for _, c := range st.Clocks {
		if c < 0 {
			return fmt.Errorf("ps: checkpoint clock %d negative", c)
		}
	}
	if len(st.Initial) == 0 {
		return fmt.Errorf("ps: checkpoint server state has no shards")
	}
	for key, init := range st.Initial {
		cur, ok := st.Shards[key]
		if !ok {
			return fmt.Errorf("ps: checkpoint missing current weights for shard %q (partial shard state)", key)
		}
		if len(cur) != len(init) {
			return fmt.Errorf("ps: checkpoint shard %q length %d, initial length %d", key, len(cur), len(init))
		}
	}
	for key := range st.Shards {
		if _, ok := st.Initial[key]; !ok {
			return fmt.Errorf("ps: checkpoint has unregistered shard %q (partial shard state)", key)
		}
	}
	for i, snap := range st.Snapshots {
		for key, v := range snap {
			init, ok := st.Initial[key]
			if !ok {
				return fmt.Errorf("ps: checkpoint snapshot %d has unregistered shard %q", i, key)
			}
			if len(v) != len(init) {
				return fmt.Errorf("ps: checkpoint snapshot %d shard %q length %d, want %d", i, key, len(v), len(init))
			}
		}
		for key := range st.Initial {
			if _, ok := snap[key]; !ok {
				return fmt.Errorf("ps: checkpoint snapshot %d missing shard %q (partial shard state)", i, key)
			}
		}
	}
	for wave, perWorker := range st.WaveDeltas {
		if perWorker == nil {
			continue // folded into a snapshot and freed, like on a live server
		}
		if len(perWorker) != len(st.Clocks) {
			return fmt.Errorf("ps: checkpoint wave %d has %d worker slots, want %d", wave, len(perWorker), len(st.Clocks))
		}
		for w, deltas := range perWorker {
			for key, delta := range deltas {
				init, ok := st.Initial[key]
				if !ok {
					return fmt.Errorf("ps: checkpoint wave %d worker %d delta for unregistered shard %q", wave, w, key)
				}
				if len(delta) != len(init) {
					return fmt.Errorf("ps: checkpoint wave %d worker %d shard %q length %d, want %d", wave, w, key, len(delta), len(init))
				}
			}
		}
	}
	return nil
}

func cloneShardMap(m map[string]tensor.Vector) map[string]tensor.Vector {
	out := make(map[string]tensor.Vector, len(m))
	for k, v := range m {
		out[k] = v.Clone()
	}
	return out
}

// State captures the server's complete state as a deep copy, taken under the
// server's lock. Capturing a closed server fails.
func (s *Server) State() (*ServerState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("ps: server closed")
	}
	st := &ServerState{
		Clocks:      append([]int(nil), s.clocks...),
		Initial:     cloneShardMap(s.initial),
		Shards:      cloneShardMap(s.shards),
		MaxDistance: s.maxDistance,
		Pushes:      s.pushes,
		Pulls:       s.pulls,
	}
	// The in-memory wave deltas are flat packed waveUpdates; the checkpoint
	// format keeps the original per-(wave,worker) map layout, so old files
	// stay readable. Waves already folded into a snapshot are freed on the
	// live server and stored as nil here, exactly as before.
	workers := len(s.clocks)
	for wave := 0; wave*workers < len(s.waveDeltas); wave++ {
		if wave < len(s.snapshots)-1 {
			st.WaveDeltas = append(st.WaveDeltas, nil)
			continue
		}
		cp := make([]map[string]tensor.Vector, workers)
		for w := 0; w < workers; w++ {
			if s.clocks[w] <= wave {
				continue // not pushed yet
			}
			u := &s.waveDeltas[wave*workers+w]
			m := make(map[string]tensor.Vector, len(u.keys))
			off := 0
			for _, k := range u.keys {
				n := len(s.initial[k])
				m[k] = u.backing[off : off+n].Clone()
				off += n
			}
			cp[w] = m
		}
		st.WaveDeltas = append(st.WaveDeltas, cp)
	}
	// Likewise the snapshots: one flat vector per clock in memory, the
	// original per-key maps in the file.
	for _, snap := range s.snapshots {
		st.Snapshots = append(st.Snapshots, s.unpackLocked(snap))
	}
	return st, nil
}

// RestoreServer rebuilds a shard server from a captured (or loaded) state.
// The state is validated and deep-copied, so the caller may keep using it.
// A server restored from a TruncateToClock'd checkpoint serves bit-identical
// PullAt snapshots for every clock at or below the cut and accepts the next
// push from each worker at exactly the cut wave.
func RestoreServer(st *ServerState) (*Server, error) {
	if st == nil {
		return nil, fmt.Errorf("ps: nil checkpoint state")
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	s, err := NewServer(len(st.Clocks))
	if err != nil {
		return nil, err
	}
	copy(s.clocks, st.Clocks)
	s.initial = cloneShardMap(st.Initial)
	s.shards = cloneShardMap(st.Shards)
	s.maxDistance = st.MaxDistance
	s.pushes = st.Pushes
	s.pulls = st.Pulls
	// Rebuild the flat packed wave-delta storage from the checkpoint's map
	// layout. Keys are sorted for a stable in-memory order; folds add
	// independent shards, so the order never changes the numerics.
	workers := len(st.Clocks)
	for wave, perWorker := range st.WaveDeltas {
		base := wave * workers
		for len(s.waveDeltas) < base+workers {
			s.waveDeltas = append(s.waveDeltas, waveUpdate{})
		}
		if perWorker == nil {
			continue // folded into a snapshot and freed, like on a live server
		}
		for w, deltas := range perWorker {
			if deltas == nil {
				continue
			}
			u := &s.waveDeltas[base+w]
			u.keys = make([]string, 0, len(deltas))
			total := 0
			for k, v := range deltas {
				u.keys = append(u.keys, k)
				total += len(v)
			}
			sort.Strings(u.keys)
			u.backing = make(tensor.Vector, total)
			off := 0
			for _, k := range u.keys {
				off += copy(u.backing[off:], deltas[k])
			}
		}
	}
	if len(st.Snapshots) > 0 {
		s.fixLayoutLocked() // nothing else can reach s yet
		for _, snap := range st.Snapshots {
			s.snapshots = append(s.snapshots, s.packLocked(snap))
		}
	}
	return s, nil
}

// Checkpoint is a consistent cut of a whole sharded parameter-server
// deployment: one state per shard server, all truncated to a common clock.
type Checkpoint struct {
	// Clock is the cut's global clock: every server's state reflects exactly
	// the waves below it.
	Clock int
	// States holds one server state per shard server, in server order.
	States []*ServerState
}

// Capture snapshots every server and truncates the result to the consistent
// cut clock — the minimum global clock across the servers at capture time.
// Workers may keep pushing while Capture runs: waves at or above the cut are
// discarded by the truncation, so the checkpoint is always a consistent,
// resumable prefix of the run. A worker resuming from it replays its
// minibatches deterministically and re-pushes exactly the waves at or above
// Clock (WSP numerics are timing-independent, so the replayed trajectory is
// bit-identical).
func Capture(servers []*Server) (*Checkpoint, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("ps: no servers to checkpoint")
	}
	ck := &Checkpoint{}
	for i, s := range servers {
		st, err := s.State()
		if err != nil {
			return nil, fmt.Errorf("ps: server %d: %w", i, err)
		}
		if i > 0 && len(st.Clocks) != len(ck.States[0].Clocks) {
			return nil, fmt.Errorf("ps: server %d expects %d workers, server 0 expects %d",
				i, len(st.Clocks), len(ck.States[0].Clocks))
		}
		ck.States = append(ck.States, st)
	}
	cut := ck.States[0].globalClock()
	for _, st := range ck.States[1:] {
		if c := st.globalClock(); c < cut {
			cut = c
		}
	}
	if err := ck.TruncateToClock(cut); err != nil {
		return nil, err
	}
	return ck, nil
}

// TruncateToClock rewrites every server state to the clock-c boundary: all
// worker clocks are clamped to c, every wave delta at or above c is dropped,
// snapshots above c are dropped, and the current weights become the clock-c
// snapshot. The result is the state a fault-free deployment would have had
// the moment the global clock reached c with no wave-c work pushed yet — the
// consistent cut that makes a mid-run capture resumable.
func (ck *Checkpoint) TruncateToClock(c int) error {
	if c < 0 {
		return fmt.Errorf("ps: negative truncation clock %d", c)
	}
	for i, st := range ck.States {
		if st.globalClock() < c {
			return fmt.Errorf("ps: server %d global clock %d below truncation clock %d", i, st.globalClock(), c)
		}
		snap, err := st.snapshotAt(c)
		if err != nil {
			return fmt.Errorf("ps: server %d: %w", i, err)
		}
		for w := range st.Clocks {
			st.Clocks[w] = c
		}
		if len(st.WaveDeltas) > c {
			st.WaveDeltas = st.WaveDeltas[:c]
		}
		if len(st.Snapshots) > c+1 {
			st.Snapshots = st.Snapshots[:c+1]
		}
		st.Shards = cloneShardMap(snap)
	}
	ck.Clock = c
	return nil
}

// snapshotAt materializes the clock-c snapshot inside a state, mirroring
// Server.snapshotLocked: deltas fold in (wave, worker) order and are freed
// once folded. Requires every wave below c to be present or already folded.
func (st *ServerState) snapshotAt(c int) (map[string]tensor.Vector, error) {
	if len(st.Snapshots) == 0 {
		st.Snapshots = append(st.Snapshots, cloneShardMap(st.Initial))
	}
	for len(st.Snapshots) <= c {
		wave := len(st.Snapshots) - 1
		if wave >= len(st.WaveDeltas) || st.WaveDeltas[wave] == nil {
			return nil, fmt.Errorf("ps: checkpoint lacks wave %d deltas for snapshot %d", wave, c)
		}
		next := cloneShardMap(st.Snapshots[wave])
		for w := range st.Clocks {
			for k, delta := range st.WaveDeltas[wave][w] {
				next[k].AddInPlace(delta)
			}
		}
		st.WaveDeltas[wave] = nil
		st.Snapshots = append(st.Snapshots, next)
	}
	return st.Snapshots[c], nil
}

// Restore rebuilds one server per captured state.
func (ck *Checkpoint) Restore() ([]*Server, error) {
	if len(ck.States) == 0 {
		return nil, fmt.Errorf("ps: empty checkpoint")
	}
	servers := make([]*Server, 0, len(ck.States))
	for i, st := range ck.States {
		s, err := RestoreServer(st)
		if err != nil {
			return nil, fmt.Errorf("ps: server %d: %w", i, err)
		}
		servers = append(servers, s)
	}
	return servers, nil
}

// validate checks cross-server consistency on top of each state's own checks.
func (ck *Checkpoint) validate() error {
	if len(ck.States) == 0 {
		return fmt.Errorf("ps: empty checkpoint")
	}
	workers := -1
	for i, st := range ck.States {
		if st == nil {
			return fmt.Errorf("ps: checkpoint server %d state missing", i)
		}
		if err := st.validate(); err != nil {
			return fmt.Errorf("ps: server %d: %w", i, err)
		}
		if workers < 0 {
			workers = len(st.Clocks)
		} else if len(st.Clocks) != workers {
			return fmt.Errorf("ps: server %d expects %d workers, server 0 expects %d", i, len(st.Clocks), workers)
		}
	}
	return nil
}

// fileHeader is decoded before the payload so magic and version mismatches
// fail precisely.
type fileHeader struct {
	Magic   string
	Version int
}

// SaveCheckpoint writes the checkpoint to path atomically: the bytes go to a
// temporary file in the destination directory, which is fsynced and renamed
// into place, so a reader never observes a torn file — it sees either the
// previous checkpoint or the new one, complete.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("ps: nil checkpoint")
	}
	if err := ck.validate(); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".hetpipe-ckpt-*")
	if err != nil {
		return fmt.Errorf("ps: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	enc := gob.NewEncoder(tmp)
	if err := enc.Encode(fileHeader{Magic: CheckpointMagic, Version: CheckpointVersion}); err != nil {
		tmp.Close()
		return fmt.Errorf("ps: checkpoint encode: %w", err)
	}
	if err := enc.Encode(ck); err != nil {
		tmp.Close()
		return fmt.Errorf("ps: checkpoint encode: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ps: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ps: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ps: checkpoint rename: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint written by SaveCheckpoint.
// Foreign files, corrupt payloads, version skew (ErrCheckpointVersion), and
// internally inconsistent states (e.g. a missing shard) are all rejected.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ps: checkpoint open: %w", err)
	}
	defer f.Close()
	dec := gob.NewDecoder(f)
	var hdr fileHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("ps: checkpoint corrupt (header): %w", err)
	}
	if hdr.Magic != CheckpointMagic {
		return nil, fmt.Errorf("ps: %q is not a hetpipe parameter-server checkpoint", path)
	}
	if hdr.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads version %d",
			ErrCheckpointVersion, hdr.Version, CheckpointVersion)
	}
	ck := &Checkpoint{}
	if err := dec.Decode(ck); err != nil {
		return nil, fmt.Errorf("ps: checkpoint corrupt (payload): %w", err)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return ck, nil
}
