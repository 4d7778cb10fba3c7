package model

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestVGG16Params(t *testing.T) {
	m := vgg16()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Published exact count with biases: 138,357,544.
	const want = 138357544
	if got := m.totalParams(); got != want {
		t.Errorf("VGG-16 params = %d, want %d", got, want)
	}
}

func TestResNet50Params(t *testing.T) {
	m := ResNet50()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Published (torchvision): 25,557,032. Allow 1% for BN bookkeeping.
	const want = 25557032
	got := m.totalParams()
	if math.Abs(float64(got-want))/float64(want) > 0.01 {
		t.Errorf("ResNet-50 params = %d, want ~%d", got, want)
	}
}

func TestAlexNetShape(t *testing.T) {
	m := alexNet()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// AlexNet has ~61 M parameters, dominated by fc6.
	got := m.totalParams()
	if got < 55e6 || got > 65e6 {
		t.Errorf("AlexNet params = %d, want ~61M", got)
	}
	convs := 0
	for _, l := range m.Layers {
		if l.Kind == kindConv {
			convs++
		}
	}
	if convs != 5 {
		t.Errorf("AlexNet convs = %d, want 5", convs)
	}
}

func TestZooOrdering(t *testing.T) {
	// Parameter-count sanity across the zoo.
	r50 := ResNet50().totalParams()
	r152 := ResNet152().totalParams()
	v16 := vgg16().totalParams()
	v19 := VGG19().totalParams()
	if r50 >= r152 {
		t.Error("ResNet-50 should be smaller than ResNet-152")
	}
	if v16 >= v19 {
		t.Error("VGG-16 should be smaller than VGG-19")
	}
	if r152 >= v16 {
		t.Error("ResNet-152 should be smaller than VGG-16 (FC layers dominate)")
	}
}

// TestZooModelsValidate: the constructors do not validate what they build
// (ByName validates its shared models once, and core.NewSystemSched every
// other model it is given), so this checks a fresh build of every row and
// holds the shared model to it. It also holds each zoo row's display name,
// which ByName accepts, to the name the constructor gives the model.
func TestZooModelsValidate(t *testing.T) {
	for i := range zoo {
		z := &zoo[i]
		fresh := z.build()
		if err := fresh.Validate(); err != nil {
			t.Errorf("%s: %v", z.key, err)
		}
		m, err := ByName(z.key)
		if err != nil {
			t.Fatal(err)
		}
		if m == fresh || !reflect.DeepEqual(m, fresh) {
			t.Errorf("%s: the shared model is not an equal copy of a fresh build", z.key)
		}
		if m.Name != z.name {
			t.Errorf("%s: table says %q, model is %q", z.key, z.name, m.Name)
		}
	}
}

// TestByNameSharesOneModel: ByName called from GOMAXPROCS goroutines at once,
// under every accepted spelling, returns one pointer per zoo model.
func TestByNameSharesOneModel(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	got := make([][]*Model, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range zoo {
				for _, name := range []string{zoo[i].key, zoo[i].name, strings.ToLower(zoo[i].name)} {
					m, err := ByName(name)
					if err != nil {
						t.Error(err)
						return
					}
					got[w] = append(got[w], m)
				}
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for j, m := range got[w] {
			if want := got[0][j/3*3]; m != want {
				t.Fatalf("goroutine %d, lookup %d: %p, want the shared %p", w, j, m, want)
			}
		}
	}
}

// TestValidateSharedModelAllocatesNothing: checking a model ByName returned
// costs nothing, while a hand-built model — a copy of a shared one included —
// still gets the full check and today's errors.
func TestValidateSharedModelAllocatesNothing(t *testing.T) {
	m, err := ByName("resnet152")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("validating a shared model allocates %.0f times, want 0", n)
	}
	cp := *m
	cp.Layers = append(slices.Clone(m.Layers), m.Layers[0])
	want := `model ResNet-152: duplicate layer name "conv1"`
	if err := cp.Validate(); err == nil || err.Error() != want {
		t.Errorf("a copy with a duplicate layer: %v, want %q", err, want)
	}
	cp = *m
	cp.Name = ""
	if err := cp.Validate(); err == nil || err.Error() != "model: empty name" {
		t.Errorf("a copy with no name: %v", err)
	}
	cp = *m
	cp.Layers = slices.Clone(m.Layers)
	cp.Layers[3].OutputElems = 0
	want = `model ResNet-152: layer "pool1" has invalid quantities`
	if err := cp.Validate(); err == nil || err.Error() != want {
		t.Errorf("a copy with bad quantities: %v, want %q", err, want)
	}
}

// TestZooLayerSlicesAreExact: each constructor sizes its layer slice to its
// exact layer count, so building a model never grows it.
func TestZooLayerSlicesAreExact(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Layers) != cap(m.Layers) {
			t.Errorf("%s: %d layers in a slice of capacity %d", name, len(m.Layers), cap(m.Layers))
		}
	}
}
