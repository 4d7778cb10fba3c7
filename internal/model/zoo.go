package model

import (
	"fmt"
	"strings"
)

// zoo is the model table ByName and Names read: the two paper evaluation
// models, then the smaller siblings used for scaling studies and sweeps.
// name is the model's display name (Model.Name).
var zoo = []struct {
	key, name string
	build     func() *Model
}{
	{"vgg19", "VGG-19", VGG19},
	{"resnet152", "ResNet-152", ResNet152},
	{"vgg16", "VGG-16", vgg16},
	{"resnet50", "ResNet-50", ResNet50},
	{"alexnet", "AlexNet", alexNet},
}

// ByName resolves a zoo model by its compact key ("vgg19"), its display name
// ("VGG-19") or the display name in lower case ("vgg-19").
func ByName(name string) (*Model, error) {
	lower := name == strings.ToLower(name) // no copy when it already is
	for _, z := range zoo {
		if name == z.key || name == z.name || lower && strings.EqualFold(name, z.name) {
			return z.build(), nil
		}
	}
	return nil, fmt.Errorf("model: unknown model %q (have %v)", name, Names())
}

// Names lists the zoo's compact model keys accepted by ByName, paper models
// first.
func Names() []string {
	names := make([]string, len(zoo))
	for i, z := range zoo {
		names[i] = z.key
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
