package profile

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/sched"
)

// TestTablesMatchPerf: every lookup equals, bit for bit, the Perf function
// it tabulates, on a model whose FLOPs make float accumulation order matter;
// for the stage times that is both StageTime and the walk's Column route.
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
	if !tab.Valid(p, m, batch) || tab.Valid(p, m, batch+1) || tab.Valid(p, model.Skewed("tab", w, 12345, 6789), batch) {
		t.Fatal("Valid does not identify (model, batch)")
	}
	if !tab.Valid(Default(), m, batch) {
		t.Fatal("tables are not valid for another Perf with the same link models")
	}
	kinds := []hw.LinkKind{hw.LinkLocal, hw.LinkPCIe, hw.LinkInfiniBand}
	for _, g := range hw.Catalog() {
		whole, err := tab.WholeModelTime(p, g)
		want, werr := p.WholeModelTime(m, g, batch)
		if err != nil || werr != nil || whole != want {
			t.Fatalf("%s: WholeModelTime (%v, %v), want (%v, %v)", g.Name, whole, err, want, werr)
		}
		for hi := 1; hi <= len(w); hi++ {
			col := tab.Column(hi)
			if len(col) != hi || cap(col) != hi {
				t.Fatalf("Column(%d) has len %d, cap %d, want %d", hi, len(col), cap(col), hi)
			}
			for lo := 0; lo < hi; lo++ {
				wf, wb, _ := p.StageTime(m, lo, hi, g, batch)
				if fwd, bwd := tab.ChunkTime(whole, lo, hi); fwd != wf || bwd != wb {
					t.Fatalf("%s [%d,%d): ChunkTime (%v, %v), want (%v, %v)", g.Name, lo, hi, fwd, bwd, wf, wb)
				}
				if fwd, bwd := tab.SplitStage(tab.Time(whole, col[lo])); fwd != wf || bwd != wb {
					t.Fatalf("%s [%d,%d): split Time of Column (%v, %v), want (%v, %v)", g.Name, lo, hi, fwd, bwd, wf, wb)
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

// sameTables reports whether a and b hold the same content, every float
// compared bit for bit.
func sameTables(a, b *Tables) bool {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if a.key != b.key || a.layers != b.layers || math.Float64bits(a.total) != math.Float64bits(b.total) ||
		!same(a.flops, b.flops) || !slices.Equal(a.weights, b.weights) || !slices.Equal(a.stash, b.stash) {
		return false
	}
	for k := range a.boundary {
		if !same(a.boundary[k], b.boundary[k]) {
			return false
		}
	}
	return true
}

// TestTablesForSharesBitIdenticalTables: TablesFor hands every Perf that
// agrees on the link models and backward ratio the one Tables, equal field
// for field to a fresh NewTables; a hit allocates nothing; and anything a
// Perf keeps to itself (anchors, WorkspaceBytes) is read from the Perf the
// caller passes, never from the shared tables.
func TestTablesForSharesBitIdenticalTables(t *testing.T) {
	m := model.ResNet152()
	p, q := Default(), Default()
	tab := TablesFor(p, m, 32)
	if TablesFor(q, m, 32) != tab {
		t.Fatal("two Perfs with equal link models got two tables")
	}
	if !sameTables(tab, NewTables(p, m, 32)) {
		t.Fatal("cached tables differ from freshly tabulated ones")
	}
	if n := testing.AllocsPerRun(10, func() { TablesFor(q, m, 32) }); n != 0 {
		t.Errorf("a cache hit allocates %.0f times", n)
	}
	q.SetAnchor("ResNet-152", 'V', 53)
	q.WorkspaceBytes = 1 << 30
	if TablesFor(q, m, 32) != tab {
		t.Error("anchors or WorkspaceBytes keyed the shared tables")
	}
	got, _ := tab.WholeModelTime(q, hw.TitanV)
	want, _ := q.WholeModelTime(m, hw.TitanV, 32)
	if mine, _ := tab.WholeModelTime(p, hw.TitanV); got != want || mine == got {
		t.Errorf("WholeModelTime under the edited anchor %v, want %v (unedited %v)", got, want, mine)
	}
	q.IB.Efficiency /= 2
	edited := TablesFor(q, m, 32)
	if edited == tab || !sameTables(edited, NewTables(q, m, 32)) {
		t.Error("an edited link model was served the old tables")
	}
}

// TestTablesCacheStaysBounded: the cache keeps as many keys as its bound;
// requesting more, twice round, keeps it at its bound and every answer equal
// to a fresh tabulation, whether it was a hit, a miss or a rebuild after
// eviction.
func TestTablesCacheStaysBounded(t *testing.T) {
	p := Default()
	m := model.Synthetic("bound", 20, 1000, 1e9, 1000)
	first := make([]*Tables, tablesCacheSize)
	for i := range first {
		first[i] = TablesFor(p, m, i+1)
	}
	for i := range first {
		if TablesFor(p, m, i+1) != first[i] {
			t.Fatalf("batch %d was evicted by fewer than %d other keys", i+1, tablesCacheSize)
		}
	}
	for round := 0; round < 2; round++ {
		for batch := 1; batch <= tablesCacheSize+5; batch++ {
			if got := TablesFor(p, m, batch); !sameTables(got, NewTables(p, m, batch)) {
				t.Fatalf("round %d batch %d: cached tables differ from fresh ones", round, batch)
			}
		}
	}
	tablesCache.mu.Lock()
	held := 0
	for _, t := range tablesCache.tabs {
		if t != nil {
			held++
		}
	}
	tablesCache.mu.Unlock()
	if held > tablesCacheSize {
		t.Errorf("the cache holds %d tables, bound %d", held, tablesCacheSize)
	}
}
