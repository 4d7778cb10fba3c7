package model

import (
	"math"
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
// (core.NewSystemSched validates every model it is given), so this does. It
// also holds each zoo row's display name, which ByName accepts, to the name
// the constructor gives the model.
func TestZooModelsValidate(t *testing.T) {
	for _, z := range zoo {
		m, err := ByName(z.key)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", z.key, err)
		}
		if m.Name != z.name {
			t.Errorf("%s: table says %q, model is %q", z.key, z.name, m.Name)
		}
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
