package ps

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"hetpipe/internal/tensor"
)

// Checkpoint file format constants. The header is decoded before the payload
// so a reader can reject foreign files and future versions with a precise
// error instead of a gob mismatch deep inside the state.
const (
	// CheckpointMagic identifies a hetpipe parameter-server checkpoint file.
	CheckpointMagic = "hetpipe-ps-checkpoint"
	// CheckpointVersion is the on-disk format version this build writes.
	// Version 1 files carried the initial weights, the current weights and
	// the unfolded wave deltas beside the snapshots; at a cut those are
	// snapshot 0, snapshot Clock and nothing, so gob skips them and a
	// version 1 file loads as it is.
	CheckpointVersion = 2
	// oldestCheckpointVersion is the oldest format this build reads.
	oldestCheckpointVersion = 1
)

// ErrCheckpointVersion reports a checkpoint written by an incompatible format
// version; match with errors.Is.
var ErrCheckpointVersion = errors.New("ps: checkpoint version mismatch")

// ServerState is one shard server's state at a checkpoint's clock cut c:
// every worker's clock (all c), the clock-0..c snapshots as per-key maps —
// snapshot 0 is the registered initial weights — and the operation
// counters. It is a deep copy: mutating it never touches the server it was
// captured from.
type ServerState struct {
	Clocks      []int
	Snapshots   []map[string]tensor.Vector
	MaxDistance int
	Pushes      uint64
	Pulls       uint64
}

// validate checks that a state is a cut at clock: every worker clock equals
// it, there is one snapshot per clock 0..clock, and every snapshot holds
// exactly snapshot 0's keys with snapshot 0's lengths. A state violating
// this — a torn write, a hand-edited file, a shard lost in transit — is
// rejected before any server is built from it.
func (st *ServerState) validate(clock int) error {
	if len(st.Clocks) < 1 {
		return fmt.Errorf("ps: checkpoint server state has no workers")
	}
	for w, c := range st.Clocks {
		if c != clock {
			return fmt.Errorf("ps: checkpoint worker %d clock %d, cut clock %d", w, c, clock)
		}
	}
	if len(st.Snapshots) != clock+1 {
		return fmt.Errorf("ps: checkpoint has %d snapshots for cut clock %d, want %d", len(st.Snapshots), clock, clock+1)
	}
	layout := st.Snapshots[0]
	if len(layout) == 0 {
		return fmt.Errorf("ps: checkpoint server state has no shards")
	}
	for i, snap := range st.Snapshots[1:] {
		for key, v := range snap {
			init, ok := layout[key]
			if !ok {
				return fmt.Errorf("ps: checkpoint snapshot %d has unregistered shard %q", i+1, key)
			}
			if len(v) != len(init) {
				return fmt.Errorf("ps: checkpoint snapshot %d shard %q length %d, want %d", i+1, key, len(v), len(init))
			}
		}
		if len(snap) != len(layout) {
			return fmt.Errorf("ps: checkpoint snapshot %d has %d of %d shards (partial shard state)", i+1, len(snap), len(layout))
		}
	}
	return nil
}

// cut captures the server's state at global-clock boundary c, which its
// global clock must already have reached, under the server's lock. Folding
// up to c materializes snapshots exactly as a pull at c would. Capturing a
// closed server fails, and so does capturing one that has released any
// clock (ErrReleased): a checkpoint holds snapshots 0..c.
func (s *Server) cut(c int) (*ServerState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	if s.base > 0 {
		return nil, errReleased(0, s.base)
	}
	s.snapshotLocked(c)
	st := &ServerState{
		Clocks:      slices.Repeat([]int{c}, s.clocks.Workers()),
		MaxDistance: s.clocks.MaxClockDistance(),
		Pushes:      s.pushes,
		Pulls:       s.pulls,
	}
	for _, snap := range s.snapshots[:c+1] {
		st.Snapshots = append(st.Snapshots, s.unpackLocked(snap))
	}
	return st, nil
}

// Checkpoint is a consistent cut of a whole sharded parameter-server
// deployment: one state per shard server, all at a common clock.
type Checkpoint struct {
	// Clock is the cut's global clock: every server's state reflects exactly
	// the waves below it.
	Clock int
	// States holds one server state per shard server, in server order.
	States []*ServerState
}

// Capture cuts every server at the consistent clock c — the minimum global
// clock across the servers — and keeps each server's snapshots 0..c. The cut
// is read before any server is locked; clocks only grow, so every server can
// still serve c when its turn comes. Workers may keep pushing while Capture
// runs: waves at or above c are left out, so the checkpoint is always a
// consistent, resumable prefix of the run. A worker resuming from it replays
// its minibatches deterministically and re-pushes exactly the waves at or
// above Clock (WSP numerics are timing-independent, so the replayed
// trajectory is bit-identical).
func Capture(servers []*Server) (*Checkpoint, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("ps: no servers to checkpoint")
	}
	ck := &Checkpoint{Clock: servers[0].GlobalClock()}
	for _, s := range servers[1:] {
		ck.Clock = min(ck.Clock, s.GlobalClock())
	}
	for i, s := range servers {
		st, err := s.cut(ck.Clock)
		if err != nil {
			return nil, fmt.Errorf("ps: server %d: %w", i, err)
		}
		ck.States = append(ck.States, st)
	}
	return ck, nil
}

// Restore rebuilds one server per captured state. The checkpoint is
// validated and copied, so the caller may keep using it. A restored server
// serves bit-identical snapshots for every clock at or below the cut and
// accepts the next push from each worker at exactly the cut wave.
func (ck *Checkpoint) Restore() ([]*Server, error) {
	if err := ck.validate(); err != nil {
		return nil, err
	}
	servers := make([]*Server, len(ck.States))
	for i, st := range ck.States {
		s, err := NewServer(len(st.Clocks))
		if err != nil {
			return nil, err
		}
		s.clocks.Reset(len(st.Clocks), ck.Clock, st.MaxDistance)
		s.pushes, s.pulls = st.Pushes, st.Pulls
		// Nothing else can reach s yet. The layout comes from snapshot 0,
		// which then becomes the server's own copy of the initial weights.
		s.initial = st.Snapshots[0]
		s.fixLayoutLocked()
		for _, snap := range st.Snapshots {
			s.snapshots = append(s.snapshots, s.packLocked(snap))
		}
		s.deltaBase = ck.Clock
		s.initial = s.unpackLocked(s.snapshots[0])
		servers[i] = s
	}
	return servers, nil
}

// validate checks that the checkpoint is a cut every state agrees on.
func (ck *Checkpoint) validate() error {
	if len(ck.States) == 0 {
		return fmt.Errorf("ps: empty checkpoint")
	}
	if ck.Clock < 0 {
		return fmt.Errorf("ps: negative checkpoint clock %d", ck.Clock)
	}
	for i, st := range ck.States {
		if st == nil {
			return fmt.Errorf("ps: checkpoint server %d state missing", i)
		}
		if err := st.validate(ck.Clock); err != nil {
			return fmt.Errorf("ps: server %d: %w", i, err)
		}
		if len(st.Clocks) != len(ck.States[0].Clocks) {
			return fmt.Errorf("ps: server %d expects %d workers, server 0 expects %d", i, len(st.Clocks), len(ck.States[0].Clocks))
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
	return readCheckpoint(f, path)
}

// readCheckpoint is LoadCheckpoint on an open stream; name labels it in
// errors.
func readCheckpoint(r io.Reader, name string) (*Checkpoint, error) {
	dec := gob.NewDecoder(r)
	var hdr fileHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("ps: checkpoint corrupt (header): %w", err)
	}
	if hdr.Magic != CheckpointMagic {
		return nil, fmt.Errorf("ps: %q is not a hetpipe parameter-server checkpoint", name)
	}
	if hdr.Version < oldestCheckpointVersion || hdr.Version > CheckpointVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads versions %d to %d",
			ErrCheckpointVersion, hdr.Version, oldestCheckpointVersion, CheckpointVersion)
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
