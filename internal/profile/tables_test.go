package profile

import (
	"math"
	"math/rand"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/sched"
)

// TestTablesMatchPerf: every lookup equals, bit for bit, the Perf function
// it tabulates, on a model whose FLOPs make float accumulation order matter.
func TestTablesMatchPerf(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	w := make([]float64, 37)
	for i := range w {
		w[i] = math.Exp(r.NormFloat64()*2) / 3
	}
	m := model.Skewed("tab", w, 12345, 6789)
	p := Default()
	const batch = 24
	tab := NewTables(p, m, batch)
	if !tab.Valid(p, m, batch) || tab.Valid(p, m, batch+1) || tab.Valid(Default(), m, batch) {
		t.Fatal("Valid does not identify (perf, model, batch)")
	}
	kinds := []hw.LinkKind{hw.LinkLocal, hw.LinkPCIe, hw.LinkInfiniBand}
	for _, g := range hw.Catalog() {
		whole, err := tab.WholeModelTime(g)
		want, werr := p.WholeModelTime(m, g, batch)
		if err != nil || werr != nil || whole != want {
			t.Fatalf("%s: WholeModelTime (%v, %v), want (%v, %v)", g.Name, whole, err, want, werr)
		}
		for lo := 0; lo < len(w); lo++ {
			for hi := lo + 1; hi <= len(w); hi++ {
				fwd, bwd := tab.ChunkTime(whole, lo, hi)
				wf, wb, _ := p.StageTime(m, lo, hi, g, batch)
				if fwd != wf || bwd != wb {
					t.Fatalf("%s [%d,%d): ChunkTime (%v, %v), want (%v, %v)", g.Name, lo, hi, fwd, bwd, wf, wb)
				}
			}
		}
	}
	for _, s := range []sched.Schedule{sched.FIFO, sched.TwoBW} {
		for lo := 0; lo < len(w); lo++ {
			for hi := lo + 1; hi <= len(w); hi++ {
				got := tab.ChunkBytes(lo, hi, int64(s.WeightVersions()), int64(s.ChunkStash(1, 4, 3))) + p.WorkspaceBytes
				if want := p.ChunkMemory(s, m, lo, hi, 1, 4, 3, batch); got != want {
					t.Fatalf("%s [%d,%d): ChunkBytes + workspace %d, want ChunkMemory %d", s.Name(), lo, hi, got, want)
				}
			}
		}
	}
	for cut := range w {
		for _, k := range kinds {
			if got, want := tab.BoundaryTime(cut, k), p.BoundaryTime(m, cut, batch, k); got != want {
				t.Fatalf("cut %d over %v: BoundaryTime %v, want %v", cut, k, got, want)
			}
		}
	}
	p.IB.Latency *= 2
	if tab.Valid(p, m, batch) {
		t.Error("tables still valid after a link model they bake in was edited")
	}
}
