package wsp

import (
	"testing"
	"testing/quick"
)

func params(sl, d, n int) Params { return Params{SLocal: sl, D: d, Workers: n} }

func TestParamsValidate(t *testing.T) {
	if err := params(3, 0, 4).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	for _, p := range []Params{params(-1, 0, 1), params(0, -1, 1), params(0, 0, 0)} {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid params %+v accepted", p)
		}
	}
}

func TestSGlobalFormula(t *testing.T) {
	// Section 5: sglobal = (D+1)(slocal+1) + slocal - 1.
	cases := []struct{ sl, d, want int }{
		{3, 0, 6},    // the paper's running example: D=0, slocal=3
		{3, 4, 22},   // (5)(4)+3-1
		{0, 0, 0},    // degenerate: sequential worker, BSP
		{6, 32, 236}, // D=32 with Nm=7: (33)(7)+6-1
	}
	for _, c := range cases {
		if got := params(c.sl, c.d, 4).SGlobal(); got != c.want {
			t.Errorf("sglobal(sl=%d,D=%d) = %d, want %d", c.sl, c.d, got, c.want)
		}
	}
}

func TestWaveArithmetic(t *testing.T) {
	p := params(3, 0, 4) // wave size 4
	if p.WaveSize() != 4 {
		t.Fatalf("wave size = %d, want 4", p.WaveSize())
	}
	// Figure 1: wave 0 = minibatches 1..4, wave 1 = 5..8, wave 2 = 9..12.
	for mb, want := range map[int]int{1: 0, 4: 0, 5: 1, 8: 1, 9: 2, 12: 2} {
		if got := p.Wave(mb); got != want {
			t.Errorf("wave(%d) = %d, want %d", mb, got, want)
		}
	}
	for mb, want := range map[int]bool{1: false, 4: true, 7: false, 8: true} {
		if got := p.IsWaveEnd(mb); got != want {
			t.Errorf("isWaveEnd(%d) = %v, want %v", mb, got, want)
		}
	}
}

func TestRequiredGlobalClockPaperExample(t *testing.T) {
	// The Section 5 example: D=0, slocal=3. After pushing wave 0 the VW
	// waits for every VW to complete wave 0 before minibatch 8, but starts
	// 5, 6, 7 freely.
	p := params(3, 0, 4)
	for mb, want := range map[int]int{
		1: 0, 4: 0, 5: 0, 6: 0, 7: 0, // wave 0 and early wave 1: free
		8:  1, // last of wave 1: all must have pushed wave 0
		12: 2, // last of wave 2: all must have pushed wave 1
	} {
		if got := p.RequiredGlobalClock(mb); got != want {
			t.Errorf("required(%d) = %d, want %d", mb, got, want)
		}
	}
}

func TestRequiredGlobalClockWithD(t *testing.T) {
	// With D=4, the first D+1 waves need no pull at all; the last minibatch
	// of wave 5 requires global clock >= 1.
	p := params(3, 4, 4)
	waveSize := p.WaveSize()
	for w := 0; w <= 4; w++ {
		mb := (w + 1) * waveSize
		if got := p.RequiredGlobalClock(mb); got != 0 {
			t.Errorf("wave %d end gated at %d, want free (D=4)", w, got)
		}
	}
	if got := p.RequiredGlobalClock(6 * waveSize); got != 1 {
		t.Errorf("wave 5 end requires %d, want 1", got)
	}
}

func TestCompleteWavesAndGatedPulls(t *testing.T) {
	cases := []struct {
		slocal, d, maxMB     int
		wantWaves, wantPulls int
	}{
		{3, 0, 400, 100, 99}, // every wave past the first is gated
		{3, 1, 400, 100, 98},
		{3, 4, 400, 100, 95},
		{0, 0, 10, 10, 9},    // Nm=1: every minibatch is a wave
		{3, 0, 402, 100, 99}, // trailing partial wave never pushes or pulls
		{3, 10, 8, 2, 0},     // short run: no wave-end is ever gated
	}
	for _, c := range cases {
		p := params(c.slocal, c.d, 2)
		if got := p.CompleteWaves(c.maxMB); got != c.wantWaves {
			t.Errorf("slocal=%d D=%d maxMB=%d: waves = %d, want %d", c.slocal, c.d, c.maxMB, got, c.wantWaves)
		}
		if got := p.GatedPulls(c.maxMB); got != c.wantPulls {
			t.Errorf("slocal=%d D=%d maxMB=%d: pulls = %d, want %d", c.slocal, c.d, c.maxMB, got, c.wantPulls)
		}
	}
	// Cross-check GatedPulls against a direct count over the wave-ends.
	p := params(2, 1, 3)
	direct := 0
	for mb := 1; mb <= 100; mb++ {
		if p.RequiredGlobalClock(mb) > 0 {
			direct++
		}
	}
	if got := p.GatedPulls(100); got != direct {
		t.Errorf("GatedPulls(100) = %d, direct count %d", got, direct)
	}
}

func TestCoordinatorBSPLikeD0(t *testing.T) {
	// Two workers, D=0: neither may finish wave 1 before both push wave 0.
	p := params(3, 0, 2)
	c, err := NewCoordinator(p)
	if err != nil {
		t.Fatal(err)
	}
	ws := p.WaveSize()
	// Worker 0 starts wave 0 and the first slocal of wave 1 freely.
	for mb := 1; mb <= ws+3; mb++ {
		if !c.CanStart(0, mb) {
			t.Fatalf("worker 0 blocked at minibatch %d before any gating point", mb)
		}
		c.Start(0, mb)
	}
	c.Push(0) // worker 0 pushes wave 0
	// Minibatch 8 (last of wave 1) must be blocked: worker 1 has not pushed.
	if c.CanStart(0, 2*ws) {
		t.Fatal("worker 0 not gated at wave-1 end while worker 1 lags")
	}
	// Worker 1 catches up through wave 0.
	for mb := 1; mb <= ws; mb++ {
		c.Start(1, mb)
	}
	c.Push(1)
	if c.GlobalClock() != 1 {
		t.Fatalf("global clock = %d, want 1", c.GlobalClock())
	}
	if !c.CanStart(0, 2*ws) {
		t.Fatal("worker 0 still gated after worker 1 pushed wave 0")
	}
}

func TestCoordinatorDistanceBound(t *testing.T) {
	// A fast worker and a stalled worker: the fast worker can push at most
	// D+1 waves before blocking.
	for _, d := range []int{0, 1, 4} {
		p := params(2, d, 2)
		c, err := NewCoordinator(p)
		if err != nil {
			t.Fatal(err)
		}
		ws := p.WaveSize()
		pushes := 0
		mb := 0
		for {
			if !c.CanStart(0, mb+1) {
				break
			}
			mb++
			c.Start(0, mb)
			if p.IsWaveEnd(mb) {
				c.Push(0)
				pushes++
			}
			if pushes > 10*d+20 {
				t.Fatalf("D=%d: runaway worker (never gated)", d)
			}
			_ = ws
		}
		if pushes != d+1 {
			t.Errorf("D=%d: fast worker pushed %d waves before blocking, want %d", d, pushes, d+1)
		}
		if got := c.MaxClockDistance(); got != d+1 {
			t.Errorf("D=%d: max clock distance %d, want %d", d, got, d+1)
		}
	}
}

func TestCoordinatorPanicsOnProtocolViolations(t *testing.T) {
	c, _ := NewCoordinator(params(3, 0, 2))
	t.Run("out of order start", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on out-of-order start")
			}
		}()
		c.CanStart(0, 2)
	})
	t.Run("push before wave completes", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on premature push")
			}
		}()
		c2, _ := NewCoordinator(params(3, 0, 2))
		c2.Push(0)
	})
}

// Property: for any (slocal, D) and any fair round-robin schedule, the clock
// distance never exceeds D+1 and the global clock never exceeds any worker's
// local clock.
func TestCoordinatorInvariantProperty(t *testing.T) {
	prop := func(slRaw, dRaw uint8, schedule []uint8) bool {
		sl := int(slRaw % 4)
		d := int(dRaw % 5)
		p := params(sl, d, 3)
		c, err := NewCoordinator(p)
		if err != nil {
			return false
		}
		next := make([]int, 3)
		for _, pick := range schedule {
			w := int(pick) % 3
			mb := next[w] + 1
			if !c.CanStart(w, mb) {
				continue // blocked; try another worker
			}
			c.Start(w, mb)
			next[w] = mb
			if p.IsWaveEnd(mb) {
				c.Push(w)
			}
			if c.MaxClockDistance() > d+1 {
				return false
			}
			for w2 := 0; w2 < 3; w2++ {
				if c.GlobalClock() > c.Clock(w2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the global staleness bound holds — when a worker starts
// minibatch mb, every other worker has pushed updates covering at least
// minibatch mb-(sglobal+1).
func TestGlobalStalenessBoundProperty(t *testing.T) {
	prop := func(slRaw, dRaw uint8, schedule []uint8) bool {
		sl := int(slRaw % 4)
		d := int(dRaw % 4)
		p := params(sl, d, 2)
		c, err := NewCoordinator(p)
		if err != nil {
			return false
		}
		sg := p.SGlobal()
		next := make([]int, 2)
		for _, pick := range schedule {
			w := int(pick) % 2
			mb := next[w] + 1
			if !c.CanStart(w, mb) {
				continue
			}
			// Check the bound before starting: all other workers must have
			// pushed through minibatch mb-(sg+1).
			if mb > (d+1)*p.WaveSize()+sl {
				needMB := mb - (sg + 1)
				for o := 0; o < 2; o++ {
					if o == w {
						continue
					}
					coveredMB := c.Clock(o) * p.WaveSize()
					if coveredMB < needMB {
						return false
					}
				}
			}
			c.Start(w, mb)
			next[w] = mb
			if p.IsWaveEnd(mb) {
				c.Push(w)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
