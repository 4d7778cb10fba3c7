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
func VGG19() *Model {
	b := newBuilder("VGG-19", 224, 224, 3)
	group := func(stage, n, channels int) {
		for i := 1; i <= n; i++ {
			name := fmt.Sprintf("conv%d_%d", stage, i)
			b.conv(name, channels, 3, 1, 1, true)
			b.relu(name + "_relu")
		}
		b.maxPool(fmt.Sprintf("pool%d", stage), 2, 2)
	}
	group(1, 2, 64)
	group(2, 2, 128)
	group(3, 4, 256)
	group(4, 4, 512)
	group(5, 4, 512)
	b.flatten("flatten")
	b.fc("fc6", 4096)
	b.relu("fc6_relu")
	b.fc("fc7", 4096)
	b.relu("fc7_relu")
	b.fc("fc8", 1000)
	b.softmax("prob")
	return b.build()
}
