package ps

import (
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hetpipe/internal/tensor"
)

// buildServers stands up `servers` shard hosts for `workers` workers with two
// shards each and pushes `waves` full waves of deterministic deltas.
func buildServers(t *testing.T, servers, workers, waves int) []*Server {
	t.Helper()
	out := make([]*Server, servers)
	for i := range out {
		s, err := NewServer(workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			key := shardKey(i, j)
			if err := s.Register(key, []float64{0, 0, 0}); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = s
	}
	pushWaves(t, out, workers, 0, waves)
	return out
}

func shardKey(server, j int) string {
	return string(rune('a'+server)) + string(rune('0'+j))
}

// pushWaves pushes waves [from, to) from every worker to every server, with
// deltas that are a deterministic function of (server, shard, worker, wave).
func pushWaves(t *testing.T, servers []*Server, workers, from, to int) {
	t.Helper()
	for wave := from; wave < to; wave++ {
		for w := 0; w < workers; w++ {
			for i, s := range servers {
				updates := map[string]tensor.Vector{}
				for j := 0; j < 2; j++ {
					v := float64(1+i) * float64(1+j) * float64(1+w) * float64(1+wave)
					updates[shardKey(i, j)] = tensor.Vector{v, 2 * v, 3 * v}
				}
				if _, err := pushMap(s, w, updates); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// allPulls reads every clock snapshot of every shard off the servers.
func allPulls(t *testing.T, servers []*Server, maxClock int) map[string][]tensor.Vector {
	t.Helper()
	out := map[string][]tensor.Vector{}
	for i, s := range servers {
		for j := 0; j < 2; j++ {
			key := shardKey(i, j)
			for c := 0; c <= maxClock; c++ {
				snap, err := pullAtMap(s, []string{key}, c)
				if err != nil {
					t.Fatalf("PullAt(%s, %d): %v", key, c, err)
				}
				out[key] = append(out[key], snap[key])
			}
		}
	}
	return out
}

func TestCheckpointRoundTripBitIdentical(t *testing.T) {
	const workers, waves = 3, 4
	servers := buildServers(t, 2, workers, waves)
	ck, err := Capture(servers)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Clock != waves {
		t.Fatalf("cut clock %d, want %d", ck.Clock, waves)
	}
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := loaded.Restore()
	if err != nil {
		t.Fatal(err)
	}

	// Every clock-versioned snapshot must be bit-identical across the
	// original and the restored deployment.
	want := allPulls(t, servers, waves)
	got := allPulls(t, restored, waves)
	for key, snaps := range want {
		for c := range snaps {
			for i := range snaps[c] {
				if got[key][c][i] != snaps[c][i] {
					t.Fatalf("shard %q clock %d coord %d: restored %v, original %v",
						key, c, i, got[key][c][i], snaps[c][i])
				}
			}
		}
	}

	// Training must continue identically: push two more waves into both and
	// compare the final snapshots bit for bit.
	pushWaves(t, servers, workers, waves, waves+2)
	pushWaves(t, restored, workers, waves, waves+2)
	for i := range servers {
		if servers[i].GlobalClock() != restored[i].GlobalClock() {
			t.Fatalf("server %d clocks diverge: %d vs %d", i, servers[i].GlobalClock(), restored[i].GlobalClock())
		}
		for j := 0; j < 2; j++ {
			key := shardKey(i, j)
			a, err := pullAtMap(servers[i], []string{key}, waves+2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := pullAtMap(restored[i], []string{key}, waves+2)
			if err != nil {
				t.Fatal(err)
			}
			for k := range a[key] {
				if a[key][k] != b[key][k] {
					t.Fatalf("post-resume shard %q coord %d: %v vs %v", key, k, a[key][k], b[key][k])
				}
			}
		}
	}
}

func TestCheckpointTruncatesTornCapture(t *testing.T) {
	// Worker 0 runs two waves ahead of worker 1, and server 1 additionally
	// missed worker 0's latest wave — the kind of torn state a mid-run
	// capture observes. The cut must land at the global minimum, with every
	// clock clamped there.
	const workers = 2
	servers := buildServers(t, 2, workers, 1)
	for wave := 1; wave < 3; wave++ {
		for i, s := range servers {
			if i == 1 && wave == 2 {
				continue // torn: server 1 never got worker 0's wave-2 push
			}
			updates := map[string]tensor.Vector{}
			for j := 0; j < 2; j++ {
				v := float64(1+i) * float64(1+j) * float64(1+wave)
				updates[shardKey(i, j)] = tensor.Vector{v, 2 * v, 3 * v}
			}
			if _, err := pushMap(s, 0, updates); err != nil {
				t.Fatal(err)
			}
		}
	}
	ck, err := Capture(servers)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Clock != 1 {
		t.Fatalf("cut clock %d, want 1 (worker 1 only pushed wave 0)", ck.Clock)
	}
	for _, st := range ck.States {
		for w, c := range st.Clocks {
			if c != 1 {
				t.Fatalf("worker %d clock %d after truncation, want 1", w, c)
			}
		}
		if len(st.WaveDeltas) > 1 {
			t.Fatalf("wave deltas above the cut survived: %d entries", len(st.WaveDeltas))
		}
	}
	restored, err := ck.Restore()
	if err != nil {
		t.Fatal(err)
	}
	// The restored snapshot at the cut equals the original's clock-1 snapshot.
	for i := range servers {
		key := shardKey(i, 0)
		want, err := pullAtMap(servers[i], []string{key}, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pullAtMap(restored[i], []string{key}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want[key] {
			if got[key][k] != want[key][k] {
				t.Fatalf("truncated snapshot diverges at %d: %v vs %v", k, got[key][k], want[key][k])
			}
		}
	}
}

func TestCheckpointAtomicOverwrite(t *testing.T) {
	servers := buildServers(t, 1, 2, 1)
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	ck1, err := Capture(servers)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, ck1); err != nil {
		t.Fatal(err)
	}
	pushWaves(t, servers, 2, 1, 2)
	ck2, err := Capture(servers)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, ck2); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Clock != 2 {
		t.Fatalf("overwritten checkpoint clock %d, want 2", loaded.Clock)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir has %d entries, want just the checkpoint", len(entries))
	}
}

func TestCheckpointCorruptFile(t *testing.T) {
	dir := t.TempDir()

	// Not a checkpoint at all.
	garbage := filepath.Join(dir, "garbage.bin")
	if err := os.WriteFile(garbage, []byte("definitely not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(garbage); err == nil {
		t.Error("LoadCheckpoint accepted garbage")
	}

	// A valid header followed by a truncated payload.
	servers := buildServers(t, 1, 2, 2)
	ck, err := Capture(servers)
	if err != nil {
		t.Fatal(err)
	}
	whole := filepath.Join(dir, "whole.bin")
	if err := SaveCheckpoint(whole, ck); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.bin")
	if err := os.WriteFile(cut, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(cut); err == nil {
		t.Error("LoadCheckpoint accepted a truncated file")
	}

	// A wrong magic string.
	foreign := filepath.Join(dir, "foreign.bin")
	f, err := os.Create(foreign)
	if err != nil {
		t.Fatal(err)
	}
	enc := gob.NewEncoder(f)
	if err := enc.Encode(fileHeader{Magic: "something-else", Version: CheckpointVersion}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadCheckpoint(foreign); err == nil {
		t.Error("LoadCheckpoint accepted a foreign magic")
	}
}

func TestCheckpointVersionSkew(t *testing.T) {
	servers := buildServers(t, 1, 2, 1)
	ck, err := Capture(servers)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "future.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := gob.NewEncoder(f)
	if err := enc.Encode(fileHeader{Magic: CheckpointMagic, Version: CheckpointVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(ck); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = LoadCheckpoint(path)
	if !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("LoadCheckpoint on a future version: %v, want ErrCheckpointVersion", err)
	}
}

func TestCheckpointPartialShard(t *testing.T) {
	servers := buildServers(t, 1, 2, 1)
	ck, err := Capture(servers)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one shard's current weights — a partial state.
	delete(ck.States[0].Shards, shardKey(0, 1))
	path := filepath.Join(t.TempDir(), "partial.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := gob.NewEncoder(f)
	if err := enc.Encode(fileHeader{Magic: CheckpointMagic, Version: CheckpointVersion}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(ck); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("LoadCheckpoint accepted a partial shard state")
	}
	// SaveCheckpoint refuses to write it in the first place.
	if err := SaveCheckpoint(filepath.Join(t.TempDir(), "x.bin"), ck); err == nil {
		t.Error("SaveCheckpoint accepted a partial shard state")
	}
	// RestoreServer refuses it too.
	if _, err := RestoreServer(ck.States[0]); err == nil {
		t.Error("RestoreServer accepted a partial shard state")
	}
}

func TestCheckpointDimensionSkew(t *testing.T) {
	servers := buildServers(t, 1, 2, 1)
	ck, err := Capture(servers)
	if err != nil {
		t.Fatal(err)
	}
	ck.States[0].Shards[shardKey(0, 0)] = tensor.Vector{1, 2} // wrong length
	if err := SaveCheckpoint(filepath.Join(t.TempDir(), "x.bin"), ck); err == nil {
		t.Error("SaveCheckpoint accepted a dimension-skewed shard")
	}
}

// TestCheckpointWrittenBeforeFlatSnapshotsStillLoads pins the file format
// across the change of in-memory layout: testdata/pr18.ckpt was written by
// the last commit that kept snapshots as per-key maps (three workers, four
// waves of pushWaves' deltas over two servers, some snapshots materialised
// before the capture and some by it). Restored here it must serve, at every
// clock, exactly what a deployment built from scratch serves, carry on
// training identically, and survive a save and load by this code.
func TestCheckpointWrittenBeforeFlatSnapshotsStillLoads(t *testing.T) {
	const workers, waves = 3, 4
	ck, err := LoadCheckpoint(filepath.Join("testdata", "pr18.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Clock != waves {
		t.Fatalf("fixture clock %d, want %d", ck.Clock, waves)
	}
	restored, err := ck.Restore()
	if err != nil {
		t.Fatal(err)
	}
	fresh := buildServers(t, 2, workers, waves)
	compare := func(label string, got []*Server, maxClock int) {
		t.Helper()
		want, have := allPulls(t, fresh, maxClock), allPulls(t, got, maxClock)
		for key, snaps := range want {
			for c := range snaps {
				for i := range snaps[c] {
					if have[key][c][i] != snaps[c][i] {
						t.Fatalf("%s: shard %q clock %d coord %d: %v, from scratch %v", label, key, c, i, have[key][c][i], snaps[c][i])
					}
				}
			}
		}
	}
	compare("restored", restored, waves)

	path := filepath.Join(t.TempDir(), "again.ckpt")
	again, err := Capture(restored)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, again); err != nil {
		t.Fatal(err)
	}
	if again, err = LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	twice, err := again.Restore()
	if err != nil {
		t.Fatal(err)
	}
	pushWaves(t, fresh, workers, waves, waves+2)
	pushWaves(t, restored, workers, waves, waves+2)
	pushWaves(t, twice, workers, waves, waves+2)
	compare("restored, then trained on", restored, waves+2)
	compare("saved again, restored, then trained on", twice, waves+2)
}
