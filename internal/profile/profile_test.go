package profile

import (
	"math"
	"testing"
	"testing/quick"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/sched"
)

func TestLinkModelTime(t *testing.T) {
	l := LinkModel{Name: "t", PeakBPS: 10e9, Efficiency: 0.5, Latency: 1e-3}
	if got := l.Time(0); got != 0 {
		t.Errorf("zero bytes = %v, want 0", got)
	}
	// 5e9 bytes at 5 GB/s effective = 1s, plus 1ms latency.
	if got := l.Time(5e9); math.Abs(got-1.001) > 1e-9 {
		t.Errorf("transfer = %v, want 1.001", got)
	}
	if got := l.EffectiveBPS(); got != 5e9 {
		t.Errorf("effective = %v, want 5e9", got)
	}
}

func TestWholeModelTimeAnchored(t *testing.T) {
	p := Default()
	m := model.VGG19()
	sec, err := p.WholeModelTime(m, hw.TitanV, 32)
	if err != nil {
		t.Fatal(err)
	}
	// 131 images/sec anchor: 32 images take 32/131 s.
	if want := 32.0 / 131.0; math.Abs(sec-want) > 1e-9 {
		t.Errorf("whole-model time = %v, want %v", sec, want)
	}
}

func TestWholeModelTimeGenericFallback(t *testing.T) {
	p := Default()
	m := model.Synthetic("syn", 4, 100, 1e9, 10)
	sec, err := p.WholeModelTime(m, hw.TitanV, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 4 GFLOPs fwd * 3 (fwd+bwd) / 7 TFLOPs.
	if want := 4e9 * 3 / 7e12; math.Abs(sec-want) > 1e-12 {
		t.Errorf("generic time = %v, want %v", sec, want)
	}
}

func TestSetAnchor(t *testing.T) {
	p := Default()
	m := model.Synthetic("syn", 4, 100, 1e9, 10)
	p.SetAnchor("syn", 'V', 64)
	sec, err := p.WholeModelTime(m, hw.TitanV, 32)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.5; math.Abs(sec-want) > 1e-9 {
		t.Errorf("anchored time = %v, want %v", sec, want)
	}
}

func TestLayerTimesSumToWholeModel(t *testing.T) {
	p := Default()
	for _, m := range model.PaperModels() {
		whole, err := p.WholeModelTime(m, hw.TitanRTX, 32)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range m.Layers {
			fwd, bwd, err := p.layerTime(m, i, hw.TitanRTX, 32)
			if err != nil {
				t.Fatal(err)
			}
			if fwd < 0 || bwd < fwd {
				t.Errorf("%s layer %d: fwd=%v bwd=%v want bwd = 2*fwd >= 0", m.Name, i, fwd, bwd)
			}
			sum += fwd + bwd
		}
		if math.Abs(sum-whole)/whole > 1e-9 {
			t.Errorf("%s: layer times sum %v != whole %v", m.Name, sum, whole)
		}
	}
}

func TestStageTimeMatchesLayerSum(t *testing.T) {
	p := Default()
	m := model.VGG19()
	lo, hi := 3, 17
	sf, sb, err := p.StageTime(m, lo, hi, hw.QuadroP4000, 32)
	if err != nil {
		t.Fatal(err)
	}
	var wf, wb float64
	for i := lo; i < hi; i++ {
		f, b, err := p.layerTime(m, i, hw.QuadroP4000, 32)
		if err != nil {
			t.Fatal(err)
		}
		wf += f
		wb += b
	}
	if math.Abs(sf-wf) > 1e-12 || math.Abs(sb-wb) > 1e-12 {
		t.Errorf("stage time (%v,%v) != layer sum (%v,%v)", sf, sb, wf, wb)
	}
}

func TestTransferTimeByKind(t *testing.T) {
	p := Default()
	if got := p.TransferTime(1<<20, hw.LinkLocal); got != 0 {
		t.Errorf("local transfer = %v, want 0", got)
	}
	pcie := p.TransferTime(100<<20, hw.LinkPCIe)
	ib := p.TransferTime(100<<20, hw.LinkInfiniBand)
	if pcie <= 0 || ib <= 0 {
		t.Fatal("transfers must take time")
	}
	if ib <= pcie {
		t.Errorf("InfiniBand (%v) should be slower than PCIe (%v)", ib, pcie)
	}
}

func TestStashCount(t *testing.T) {
	k := 4
	// Last stage always holds one minibatch.
	if got := sched.FIFO.ChunkStash(3, k, 7); got != 1 {
		t.Errorf("last stage stash = %d, want 1", got)
	}
	// First stage holds up to 2k-1, capped by Nm.
	if got := sched.FIFO.ChunkStash(0, k, 7); got != 7 {
		t.Errorf("first stage stash (Nm=7) = %d, want 7", got)
	}
	if got := sched.FIFO.ChunkStash(0, k, 3); got != 3 {
		t.Errorf("first stage stash (Nm=3) = %d, want 3", got)
	}
	// Monotone decreasing across stages.
	prev := math.MaxInt32
	for s := 0; s < k; s++ {
		c := sched.FIFO.ChunkStash(s, k, 10)
		if c > prev {
			t.Errorf("stash count increased at stage %d", s)
		}
		prev = c
	}
}

func TestStageMemoryGrowsWithNm(t *testing.T) {
	p := Default()
	m := model.ResNet152()
	k := 4
	cut := len(m.Layers) / 4
	m1 := p.ChunkMemory(sched.Default(), m, 0, cut, 0, k, 1, 32)
	m4 := p.ChunkMemory(sched.Default(), m, 0, cut, 0, k, 4, 32)
	if m4 <= m1 {
		t.Errorf("stage-0 memory should grow with Nm: Nm=1 %d, Nm=4 %d", m1, m4)
	}
	// Last stage memory is Nm-independent once Nm >= 1.
	l1 := p.ChunkMemory(sched.Default(), m, 3*cut, len(m.Layers), k-1, k, 1, 32)
	l4 := p.ChunkMemory(sched.Default(), m, 3*cut, len(m.Layers), k-1, k, 4, 32)
	if l1 != l4 {
		t.Errorf("last-stage memory should not depend on Nm: %d vs %d", l1, l4)
	}
}

// Property: transfer time is monotone in payload size for both links.
func TestTransferMonotoneProperty(t *testing.T) {
	p := Default()
	prop := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return p.TransferTime(x, hw.LinkPCIe) <= p.TransferTime(y, hw.LinkPCIe) &&
			p.TransferTime(x, hw.LinkInfiniBand) <= p.TransferTime(y, hw.LinkInfiniBand)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: stage memory is additive-consistent — a larger layer range never
// needs less memory (same stage position).
func TestStageMemoryMonotoneProperty(t *testing.T) {
	p := Default()
	m := model.VGG19()
	n := len(m.Layers)
	prop := func(a, b uint8) bool {
		lo := int(a) % n
		hi := lo + 1 + int(b)%(n-lo)
		mid := lo + (hi-lo)/2
		if mid == lo {
			return true
		}
		whole := p.ChunkMemory(sched.Default(), m, lo, hi, 0, 4, 4, 32)
		part := p.ChunkMemory(sched.Default(), m, lo, mid, 0, 4, 4, 32)
		return whole >= part
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAnchorOrderingMatchesPaper(t *testing.T) {
	// Compute power ordering from the paper: V > R > G > Q for both models.
	p := Default()
	for _, m := range model.PaperModels() {
		var prev float64 = math.Inf(1)
		for _, g := range hw.Catalog() {
			sec, err := p.WholeModelTime(m, g, 32)
			if err != nil {
				t.Fatal(err)
			}
			rate := 32.0 / sec
			if rate >= prev {
				t.Errorf("%s: rate ordering violated at %s", m.Name, g.Name)
			}
			prev = rate
		}
	}
}
