package data

import (
	"testing"
	"testing/quick"
)

func TestSyntheticDeterminism(t *testing.T) {
	a, err := SyntheticClassification(7, 100, 5, 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticClassification(7, 100, 5, 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("labels diverge at %d", i)
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatalf("features diverge at %d/%d", i, j)
			}
		}
	}
	c, err := SyntheticClassification(8, 100, 5, 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.X {
		if a.Y[i] != c.Y[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical label sequences")
	}
}

func TestSyntheticShapeAndBalance(t *testing.T) {
	d, err := SyntheticClassification(1, 300, 8, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 300 || d.Dim != 8 || d.Classes != 3 {
		t.Fatalf("shape = %d/%d/%d", d.Len(), d.Dim, d.Classes)
	}
	counts := make(map[int]int)
	for _, y := range d.Y {
		if y < 0 || y >= 3 {
			t.Fatalf("label out of range: %d", y)
		}
		counts[y]++
	}
	for c, n := range counts {
		if n != 100 {
			t.Errorf("class %d has %d samples, want 100", c, n)
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := SyntheticClassification(1, 1, 4, 3, 0.5); err == nil {
		t.Error("n < classes accepted")
	}
	if _, err := SyntheticClassification(1, 10, 0, 3, 0.5); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := SyntheticClassification(1, 10, 4, 1, 0.5); err == nil {
		t.Error("single class accepted")
	}
	if _, err := SyntheticClassification(1, 10, 4, 3, 0); err == nil {
		t.Error("zero noise accepted")
	}
}

func TestSplit(t *testing.T) {
	d, _ := SyntheticClassification(1, 100, 4, 2, 0.5)
	tr, ev, err := d.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 80 || ev.Len() != 20 {
		t.Fatalf("split = %d/%d", tr.Len(), ev.Len())
	}
	if _, _, err := d.Split(0); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, _, err := d.Split(1); err == nil {
		t.Error("unit fraction accepted")
	}
}

// batchIndices walks minibatch b of the given size run by run, the way the
// training tasks do, and returns the sample index of every row it was handed.
func batchIndices(t *testing.T, d *Dataset, b, size int) []int {
	t.Helper()
	var idx []int
	for s := 0; s < size; {
		x, y := d.Run(b*size+s, size-s)
		if len(y) == 0 || len(x) != len(y)*d.Dim {
			t.Fatalf("run at %d: %d labels for a block of %d", b*size+s, len(y), len(x))
		}
		at := (b*size + s) % d.Len()
		for i := range y {
			// Row i of the block is sample at+i itself, not a copy.
			if &x[i*d.Dim] != &d.X[at+i][0] || y[i] != d.Y[at+i] {
				t.Fatalf("run at %d: row %d is not sample %d", b*size+s, i, at+i)
			}
			idx = append(idx, at+i)
		}
		s += len(y)
	}
	return idx
}

func TestBatchWrapsAround(t *testing.T) {
	d, _ := SyntheticClassification(1, 10, 2, 2, 0.5)
	idx := batchIndices(t, d, 0, 4)
	if len(idx) != 4 || idx[0] != 0 || idx[3] != 3 {
		t.Fatalf("batch 0 = %v", idx)
	}
	// Batch 2 starts at sample 8 and wraps to 0,1: two runs.
	idx = batchIndices(t, d, 2, 4)
	if len(idx) != 4 || idx[0] != 8 || idx[2] != 0 || idx[3] != 1 {
		t.Fatalf("batch 2 = %v", idx)
	}
	if _, y := d.Run(8, 4); len(y) != 2 {
		t.Fatalf("run at the dataset end holds %d samples, want 2", len(y))
	}
}

// Property: a batch is its size in samples, consecutive modulo the dataset
// length from sample b*size on — the sequence the old index-slice Batch
// returned — whatever the size, including sizes above the dataset length.
func TestBatchProperty(t *testing.T) {
	d, _ := SyntheticClassification(3, 97, 3, 2, 0.4)
	prop := func(b uint16, szRaw uint8) bool {
		size := 1 + int(szRaw)
		idx := batchIndices(t, d, int(b), size)
		if len(idx) != size {
			return false
		}
		for i, at := range idx {
			if at != (int(b)*size+i)%d.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitSharesTheSlab: both sides of a split keep samples in one
// contiguous block (what Run hands out), and the block is the parent's.
func TestSplitSharesTheSlab(t *testing.T) {
	d, _ := SyntheticClassification(2, 50, 3, 2, 0.5)
	tr, ev, err := d.Split(0.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []*Dataset{tr, ev} {
		x, y := side.Run(0, side.Len()+5)
		if len(y) != side.Len() || len(x) != side.Len()*side.Dim {
			t.Fatalf("whole-dataset run holds %d samples of %d", len(y), side.Len())
		}
		for i := range side.X {
			if &x[i*side.Dim] != &side.X[i][0] {
				t.Fatalf("sample %d is not row %d of its side's block", i, i)
			}
		}
	}
	if &ev.X[0][0] != &d.X[tr.Len()][0] {
		t.Fatal("split copied the features")
	}
}
