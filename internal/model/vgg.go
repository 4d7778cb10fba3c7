package model

import "fmt"

// VGG19 builds the VGG-19 architecture (configuration E of Simonyan &
// Zisserman) for 224x224x3 inputs and 1000 classes: sixteen 3x3
// convolutions in five groups separated by 2x2 max pooling, then three fully
// connected layers. Every convolution and the first two FC layers are
// followed by ReLU.
//
// The construction yields exactly 143,667,240 trainable parameters
// (~548 MB in float32), matching the parameter-set size the paper quotes for
// VGG-19 — the size that makes its parameter synchronization expensive.
func VGG19() *Model { return vgg("VGG-19", [5]int{2, 2, 4, 4, 4}) }

// vgg16 builds VGG configuration D (thirteen 3x3 convolutions): the smaller
// sibling of the paper's VGG-19, useful for scaling studies and tests.
func vgg16() *Model { return vgg("VGG-16", [5]int{2, 2, 3, 3, 3}) }

// vggChannels is the output width of each VGG convolution group.
var vggChannels = [5]int{64, 128, 256, 512, 512}

// vgg builds a VGG network with convs[g] 3x3 convolutions (each followed by
// ReLU) in group g, a 2x2 max pool after each group, and the three-layer
// classifier.
func vgg(name string, convs [5]int) *Model {
	layers := 7 // flatten, fc6 + ReLU, fc7 + ReLU, fc8, softmax
	for _, n := range convs {
		layers += 2*n + 1
	}
	b := newBuilder(name, layers, 224, 224, 3)
	for g, n := range convs {
		for i := 1; i <= n; i++ {
			conv := fmt.Sprintf("conv%d_%d", g+1, i)
			b.conv(conv, vggChannels[g], 3, 1, 1, true)
			b.relu(conv + "_relu")
		}
		b.maxPool(fmt.Sprintf("pool%d", g+1), 2, 2)
	}
	b.flatten("flatten")
	b.fc("fc6", 4096)
	b.relu("fc6_relu")
	b.fc("fc7", 4096)
	b.relu("fc7_relu")
	b.fc("fc8", 1000)
	b.softmax("prob")
	return b.m
}
