package sched

import "testing"

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, s.Name())
		}
		if s.Description() == "" {
			t.Errorf("%s: empty description", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
	if s, err := ByName(""); err != nil || s.Name() != NameFIFO {
		t.Errorf("ByName(\"\") = %v, %v; want default %s", s, err, NameFIFO)
	}
	if Or(nil).Name() != NameFIFO {
		t.Error("Or(nil) should be the default schedule")
	}
	if Or(GPipe).Name() != nameGPipe {
		t.Error("Or(GPipe) should pass through")
	}
}

func TestStashCountModels(t *testing.T) {
	const k = 4
	for _, s := range []Schedule{FIFO, GPipe, OneF1B, Overlap} {
		for stage := 0; stage < k; stage++ {
			for nm := 1; nm <= 8; nm++ {
				c := s.ChunkStash(stage, k, nm)
				if c < 1 || c > nm {
					t.Errorf("%s: ChunkStash(%d,%d,%d) = %d outside [1,%d]", s.Name(), stage, k, nm, c, nm)
				}
			}
		}
	}
	// FIFO reproduces the paper's min(Nm, 2*(k-stage)-1) model.
	if got := FIFO.ChunkStash(0, 4, 8); got != 7 {
		t.Errorf("FIFO stage0 stash = %d, want 7", got)
	}
	if got := FIFO.ChunkStash(3, 4, 8); got != 1 {
		t.Errorf("FIFO last-stage stash = %d, want 1", got)
	}
	// GPipe stashes the whole wave on every stage.
	if got := GPipe.ChunkStash(0, 4, 8); got != 8 {
		t.Errorf("GPipe stash = %d, want 8", got)
	}
	// 1F1B holds at most stage-depth activations — strictly below FIFO on
	// every stage but the last whenever Nm is large enough.
	for stage := 0; stage < k; stage++ {
		f, o := FIFO.ChunkStash(stage, k, 8), OneF1B.ChunkStash(stage, k, 8)
		if o > f {
			t.Errorf("stage %d: 1F1B stash %d > FIFO %d", stage, o, f)
		}
		if stage < k-1 && o >= f {
			t.Errorf("stage %d: 1F1B stash %d not strictly below FIFO %d", stage, o, f)
		}
	}
	if got := OneF1B.ChunkStash(0, 4, 8); got != 4 {
		t.Errorf("1F1B stage0 stash = %d, want 4 (stage depth)", got)
	}
}

func TestInFlightCap(t *testing.T) {
	if got := OneF1B.InFlightCap(4, 8); got != 4 {
		t.Errorf("1F1B InFlightCap(4,8) = %d, want 4", got)
	}
	if got := OneF1B.InFlightCap(4, 2); got != 2 {
		t.Errorf("1F1B InFlightCap(4,2) = %d, want 2", got)
	}
	for _, s := range []Schedule{FIFO, GPipe, Overlap} {
		if got := s.InFlightCap(4, 8); got != 8 {
			t.Errorf("%s InFlightCap(4,8) = %d, want 8", s.Name(), got)
		}
	}
	if !Overlap.OverlapRecv() {
		t.Error("overlap schedule must overlap receives")
	}
	for _, s := range []Schedule{FIFO, GPipe, OneF1B} {
		if s.OverlapRecv() {
			t.Errorf("%s must serialize receives", s.Name())
		}
	}
}

// TestStashClaimFollowsDecisions: the stash claim a row declares is the one
// its decisions imply — fill-drain holds the wave, backward-first the depth,
// arrival order the round trip — so no row can pair a discipline with
// another discipline's memory model.
func TestStashClaimFollowsDecisions(t *testing.T) {
	for _, name := range Names() {
		s, _ := ByName(name)
		want := StashRoundTrip
		switch {
		case s.Inject() == InjectWave:
			want = stashWave
		case s.Pick() == PickBackwardFirst:
			want = stashDepth
		}
		if s.Stash() != want {
			t.Errorf("%s declares stash claim %d, its decisions imply %d", name, s.Stash(), want)
		}
	}
}
