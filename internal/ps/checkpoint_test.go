package ps

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"hetpipe/internal/tensor"
)

// buildServers stands up `servers` shard hosts for `workers` workers with two
// shards each and pushes `waves` full waves of deterministic deltas.
func buildServers(t testing.TB, servers, workers, waves int) []*Server {
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

// serverKeys is buildServers' layout of one server: its two shards, sorted.
func serverKeys(server int) []string {
	return []string{shardKey(server, 0), shardKey(server, 1)}
}

// pushWaves pushes waves [from, to) from every worker to every server, with
// deltas that are a deterministic function of (server, shard, worker, wave).
func pushWaves(t testing.TB, servers []*Server, workers, from, to int) {
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
		for c := 0; c <= maxClock; c++ {
			snap, err := pullAtMap(s, serverKeys(i), c)
			if err != nil {
				t.Fatalf("server %d PullAt(%d): %v", i, c, err)
			}
			for _, key := range serverKeys(i) {
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
		a, err := pullAtMap(servers[i], serverKeys(i), waves+2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pullAtMap(restored[i], serverKeys(i), waves+2)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range serverKeys(i) {
			for k := range a[key] {
				if a[key][k] != b[key][k] {
					t.Fatalf("post-resume shard %q coord %d: %v vs %v", key, k, a[key][k], b[key][k])
				}
			}
		}
	}
}

// TestRestoredClocksContinueFromCut cuts a server whose workers are up to
// D+1 waves apart, restores it, replays each worker up to where the
// uninterrupted server had it, and then pushes the same waves into both:
// GlobalClock and MaxClockDistance must agree right after the restore and
// after every push. A restored server starts every worker at the cut, so
// this is the clock ledger's restore path (the cut, the carried maximum
// distance, the workers at the minimum).
func TestRestoredClocksContinueFromCut(t *testing.T) {
	const workers, d, waves = 3, 1, 12
	rng := rand.New(rand.NewSource(7))
	// A random WSP push order: a worker may push only while it is at most
	// D+1 waves ahead of the slowest once it has.
	var order []int
	clocks := make([]int, workers)
	for len(order) < workers*waves {
		w := rng.Intn(workers)
		if clocks[w] == waves || clocks[w]+1-slices.Min(clocks) > d+1 {
			continue
		}
		order = append(order, w)
		clocks[w]++
	}
	push := func(s *Server, w int) {
		t.Helper()
		if _, err := pushMap(s, w, map[string]tensor.Vector{"k": {float64(w)}}); err != nil {
			t.Fatal(err)
		}
	}
	for cutAt := 1; cutAt < len(order); cutAt++ {
		twin, err := NewServer(workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.Register("k", []float64{0}); err != nil {
			t.Fatal(err)
		}
		for _, w := range order[:cutAt] {
			push(twin, w)
		}
		ck, err := Capture([]*Server{twin})
		if err != nil {
			t.Fatal(err)
		}
		restored, err := ck.Restore()
		if err != nil {
			t.Fatal(err)
		}
		r := restored[0]
		same := func(when string) {
			t.Helper()
			if r.GlobalClock() != twin.GlobalClock() || r.MaxClockDistance() != twin.MaxClockDistance() {
				t.Fatalf("cut after push %d, %s: restored global clock %d, max distance %d; twin %d, %d",
					cutAt, when, r.GlobalClock(), r.MaxClockDistance(), twin.GlobalClock(), twin.MaxClockDistance())
			}
		}
		same("restored")
		// The replay: every worker re-pushes its waves from the cut up to the
		// twin's clock for it.
		ahead := make([]int, workers)
		for _, w := range order[:cutAt] {
			ahead[w]++
		}
		for w := range workers {
			for c := ck.Clock; c < ahead[w]; c++ {
				push(r, w)
				same(fmt.Sprintf("replaying worker %d's wave %d", w, c))
			}
		}
		for i, w := range order[cutAt:] {
			push(twin, w)
			push(r, w)
			same(fmt.Sprintf("push %d after the cut", i))
		}
		if twin.GlobalClock() != waves || twin.MaxClockDistance() != d+1 {
			t.Fatalf("twin ended at global clock %d, max distance %d; want %d, %d",
				twin.GlobalClock(), twin.MaxClockDistance(), waves, d+1)
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
		if len(st.Snapshots) != ck.Clock+1 {
			t.Fatalf("%d snapshots for cut clock %d, want %d", len(st.Snapshots), ck.Clock, ck.Clock+1)
		}
	}
	restored, err := ck.Restore()
	if err != nil {
		t.Fatal(err)
	}
	// The restored snapshot at the cut equals the original's clock-1 snapshot.
	for i := range servers {
		key := shardKey(i, 0)
		want, err := pullAtMap(servers[i], serverKeys(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pullAtMap(restored[i], serverKeys(i), 1)
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
	dir := t.TempDir()
	for _, version := range []int{0, CheckpointVersion + 1} {
		path := filepath.Join(dir, "skewed.bin")
		writeRawCheckpoint(t, path, version, ck)
		if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("LoadCheckpoint on version %d: %v, want ErrCheckpointVersion", version, err)
		}
	}
	// Both versions this build reads load the same payload.
	for _, version := range []int{1, CheckpointVersion} {
		path := filepath.Join(dir, "readable.bin")
		writeRawCheckpoint(t, path, version, ck)
		if _, err := LoadCheckpoint(path); err != nil {
			t.Fatalf("LoadCheckpoint on version %d: %v", version, err)
		}
	}
}

// writeRawCheckpoint writes ck as a checkpoint file with the given header
// version, unvalidated, the way a torn or hand-edited file reaches
// LoadCheckpoint.
func writeRawCheckpoint(t testing.TB, path string, version int, ck *Checkpoint) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := gob.NewEncoder(f)
	if err := enc.Encode(fileHeader{Magic: CheckpointMagic, Version: version}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(ck); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointPartialShard(t *testing.T) {
	servers := buildServers(t, 1, 2, 2)
	ck, err := Capture(servers)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one shard from one snapshot — a partial state.
	delete(ck.States[0].Snapshots[1], shardKey(0, 1))
	path := filepath.Join(t.TempDir(), "partial.bin")
	writeRawCheckpoint(t, path, CheckpointVersion, ck)
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("LoadCheckpoint accepted a partial shard state")
	}
	// SaveCheckpoint refuses to write it in the first place.
	if err := SaveCheckpoint(filepath.Join(t.TempDir(), "x.bin"), ck); err == nil {
		t.Error("SaveCheckpoint accepted a partial shard state")
	}
	// Restore refuses it too.
	if _, err := ck.Restore(); err == nil {
		t.Error("Restore accepted a partial shard state")
	}
}

func TestCheckpointDimensionSkew(t *testing.T) {
	servers := buildServers(t, 1, 2, 2)
	ck, err := Capture(servers)
	if err != nil {
		t.Fatal(err)
	}
	ck.States[0].Snapshots[2][shardKey(0, 0)] = tensor.Vector{1, 2} // wrong length
	if err := SaveCheckpoint(filepath.Join(t.TempDir(), "x.bin"), ck); err == nil {
		t.Error("SaveCheckpoint accepted a dimension-skewed shard")
	}
	if _, err := ck.Restore(); err == nil {
		t.Error("Restore accepted a dimension-skewed shard")
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

// TestCaptureDuringPushes takes checkpoints while three workers push waves
// through in-process Sharded clients over three servers at D = 1. Capture
// reads its cut before it locks any server, so this is the wall of that
// order: every checkpoint, restored, must serve at each clock up to its cut
// exactly what the live servers serve, and accept each worker's push at the
// cut wave — after which its next snapshot is the live one too.
func TestCaptureDuringPushes(t *testing.T) {
	const workers, waves, d = 3, 40, 1
	keys := []string{"a", "b", "c", "d", "e"}
	dims := []int{3, 1, 4, 2, 5}
	dep := newDeployment(t, workers, 3, keys, dims, false)
	delta := func(w, wave int) []tensor.Vector {
		out := make([]tensor.Vector, len(keys))
		for i, n := range dims {
			out[i] = make(tensor.Vector, n)
			for j := range out[i] {
				out[i][j] = float64((w+1)*(wave+1)) / float64(i+j+1)
			}
		}
		return out
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]tensor.Vector, len(keys))
			for v := 0; v < waves; v++ {
				// Push wave v with the gated pull that lets wave v+1 start.
				pull := &SnapshotPull{Clock: max(0, v+1-d), Dst: dst}
				if err := dep.workers[w].Exchange(&Push{Worker: w, Vecs: delta(w, v)}, pull); err != nil {
					errs <- err
					for _, s := range dep.servers {
						s.Close() // release the peers gated on this worker
					}
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Capture until the workers finish, and once after; keep one checkpoint
	// per cut clock. A worker's failure closes the servers, which fails the
	// next capture; report the worker's error rather than that.
	var cks []*Checkpoint
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		ck, err := Capture(dep.servers)
		if err != nil {
			<-done
			close(errs)
			for werr := range errs {
				t.Fatal(werr)
			}
			t.Fatal(err)
		}
		if len(cks) == 0 || cks[len(cks)-1].Clock != ck.Clock {
			cks = append(cks, ck)
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if last := cks[len(cks)-1].Clock; last != waves {
		t.Fatalf("final cut at clock %d, want %d", last, waves)
	}
	t.Logf("%d distinct cuts", len(cks))

	live := dep.workers[0]
	pull := func(sh *Sharded, c int) []tensor.Vector {
		t.Helper()
		dst := make([]tensor.Vector, len(keys))
		if err := sh.PullAtInto(dst, keys, c); err != nil {
			t.Fatalf("pull at clock %d: %v", c, err)
		}
		return dst
	}
	for _, ck := range cks {
		restored, err := ck.Restore()
		if err != nil {
			t.Fatal(err)
		}
		backends := make([]Backend, len(restored))
		for i, s := range restored {
			backends[i] = AdaptServer(s)
		}
		sh, err := NewSharded(live.placement, backends)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c <= ck.Clock; c++ {
			if err := sameBits(pull(live, c), pull(sh, c)); err != nil {
				t.Fatalf("cut %d, clock %d: %v", ck.Clock, c, err)
			}
		}
		for w := 0; w < workers; w++ {
			if err := sh.PushOrdered(w, keys, delta(w, ck.Clock)); err != nil {
				t.Fatalf("cut %d: worker %d's push of wave %d: %v", ck.Clock, w, ck.Clock, err)
			}
		}
		if ck.Clock < waves {
			if err := sameBits(pull(live, ck.Clock+1), pull(sh, ck.Clock+1)); err != nil {
				t.Fatalf("cut %d, clock %d after the resumed wave: %v", ck.Clock, ck.Clock+1, err)
			}
		}
	}
}

// FuzzLoadCheckpoint holds the checkpoint reader to what a reader of files
// from outside the process owes: it never panics or hangs, and whatever it
// accepts is a cut servers can be rebuilt from — restored, they answer a pull
// at every clock up to the cut with vectors of the layout's lengths, and take
// worker 0's push of the cut wave.
func FuzzLoadCheckpoint(f *testing.F) {
	pr18, err := os.ReadFile(filepath.Join("testdata", "pr18.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pr18)
	ck, err := Capture(buildServers(f, 2, 2, 2))
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "fresh.ckpt")
	if err := SaveCheckpoint(path, ck); err != nil {
		f.Fatal(err)
	}
	fresh, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh)
	f.Add(fresh[:len(fresh)/2])
	for _, version := range []int{1, CheckpointVersion} {
		writeRawCheckpoint(f, path, version, ck)
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := readCheckpoint(bytes.NewReader(data), "fuzz input")
		if err != nil {
			return
		}
		servers, err := ck.Restore()
		if err != nil {
			t.Fatalf("a loaded checkpoint does not restore: %v", err)
		}
		// A pull that blocks is a hang; closing the servers turns it into a
		// failure.
		release := time.AfterFunc(10*time.Second, func() {
			for _, s := range servers {
				s.Close()
			}
		})
		defer release.Stop()
		for i, s := range servers {
			layout := ck.States[i].Snapshots[0]
			keys := make([]string, 0, len(layout))
			for k := range layout {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			dst, zeros := make([]tensor.Vector, len(keys)), make([]tensor.Vector, len(keys))
			for j, k := range keys {
				zeros[j] = make(tensor.Vector, len(layout[k]))
			}
			for c := 0; c <= ck.Clock; c++ {
				if err := pullOnly(s, dst, c); err != nil {
					t.Fatalf("server %d: pull at clock %d of cut %d: %v", i, c, ck.Clock, err)
				}
				for j, k := range keys {
					if len(dst[j]) != len(layout[k]) {
						t.Fatalf("server %d clock %d: shard %q length %d, layout %d", i, c, k, len(dst[j]), len(layout[k]))
					}
				}
			}
			if clock, err := pushOnly(s, 0, zeros); err != nil || clock != ck.Clock+1 {
				t.Fatalf("server %d: worker 0's push of wave %d = %d, %v", i, ck.Clock, clock, err)
			}
		}
	})
}
