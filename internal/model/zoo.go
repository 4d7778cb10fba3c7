package model

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// zooModel is one row of the model table: name is the model's display name
// (Model.Name), build its constructor, and shared the one model ByName
// returns for it, built and validated on first use.
type zooModel struct {
	key, name string
	build     func() *Model
	once      sync.Once
	shared    atomic.Pointer[Model]
}

// model returns the row's shared model, building it on first use. A zoo
// model that does not validate is a bug in its constructor, not an input.
func (z *zooModel) model() *Model {
	z.once.Do(func() {
		m := z.build()
		if err := m.validate(); err != nil {
			panic(err)
		}
		z.shared.Store(m)
	})
	return z.shared.Load()
}

// zoo is the model table ByName and Names read: the two paper evaluation
// models, then the smaller siblings used for scaling studies and sweeps.
var zoo = []zooModel{
	{key: "vgg19", name: "VGG-19", build: VGG19},
	{key: "resnet152", name: "ResNet-152", build: ResNet152},
	{key: "vgg16", name: "VGG-16", build: vgg16},
	{key: "resnet50", name: "ResNet-50", build: ResNet50},
	{key: "alexnet", name: "AlexNet", build: alexNet},
}

// ByName resolves a zoo model by its compact key ("vgg19"), its display name
// ("VGG-19") or the display name in lower case ("vgg-19"). It returns the
// zoo's one shared model for that name, built and validated on the first
// request in the process: every caller gets the same pointer, which the
// package's immutability makes safe to share. VGG19, ResNet152 and ResNet50
// build a fresh one.
func ByName(name string) (*Model, error) {
	lower := name == strings.ToLower(name) // no copy when it already is
	for i := range zoo {
		z := &zoo[i]
		if name == z.key || name == z.name || lower && strings.EqualFold(name, z.name) {
			return z.model(), nil
		}
	}
	return nil, fmt.Errorf("model: unknown model %q (have %v)", name, Names())
}

// shared reports whether m is one of the models ByName returned, which were
// validated when they were built.
func shared(m *Model) bool {
	for i := range zoo {
		if m != nil && zoo[i].shared.Load() == m {
			return true
		}
	}
	return false
}

// Names lists the zoo's compact model keys accepted by ByName, paper models
// first.
func Names() []string {
	names := make([]string, len(zoo))
	for i := range zoo {
		names[i] = zoo[i].key
	}
	return names
}

// alexNet builds the eight-layer AlexNet (single-tower variant): the
// smallest realistic CNN in the zoo, handy for fast pipeline tests.
func alexNet() *Model {
	b := newBuilder("AlexNet", 20, 224, 224, 3)
	b.conv("conv1", 64, 11, 4, 2, true)
	b.relu("conv1_relu")
	b.maxPool("pool1", 3, 2)
	b.conv("conv2", 192, 5, 1, 2, true)
	b.relu("conv2_relu")
	b.maxPool("pool2", 3, 2)
	b.conv("conv3", 384, 3, 1, 1, true)
	b.relu("conv3_relu")
	b.conv("conv4", 256, 3, 1, 1, true)
	b.relu("conv4_relu")
	b.conv("conv5", 256, 3, 1, 1, true)
	b.relu("conv5_relu")
	b.maxPool("pool5", 3, 2)
	b.flatten("flatten")
	b.fc("fc6", 4096)
	b.relu("fc6_relu")
	b.fc("fc7", 4096)
	b.relu("fc7_relu")
	b.fc("fc8", 1000)
	b.softmax("prob")
	return b.m
}
