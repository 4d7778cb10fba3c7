package model

import "fmt"

// vgg16 builds VGG configuration D (thirteen 3x3 convolutions): the smaller
// sibling of the paper's VGG-19, useful for scaling studies and tests.
func vgg16() *Model {
	b := newBuilder("VGG-16", 38, 224, 224, 3)
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
	group(3, 3, 256)
	group(4, 3, 512)
	group(5, 3, 512)
	b.flatten("flatten")
	b.fc("fc6", 4096)
	b.relu("fc6_relu")
	b.fc("fc7", 4096)
	b.relu("fc7_relu")
	b.fc("fc8", 1000)
	b.softmax("prob")
	return b.m
}

// ResNet50 builds ResNet-50 (bottleneck depths [3,4,6,3]): the standard
// smaller residual model, ~25.6 M parameters.
func ResNet50() *Model {
	b := newBuilder("ResNet-50", 24, 224, 224, 3)
	b.conv("conv1", 64, 7, 2, 3, false)
	b.bn("conv1_bn")
	b.relu("conv1_relu")
	b.maxPool("pool1", 3, 2)
	stage := func(idx, blocks, mid, out, firstStride int) {
		for i := 0; i < blocks; i++ {
			stride := 1
			if i == 0 {
				stride = firstStride
			}
			bottleneck(b, fmt.Sprintf("res%db%d", idx, i), mid, out, stride)
		}
	}
	stage(2, 3, 64, 256, 1)
	stage(3, 4, 128, 512, 2)
	stage(4, 6, 256, 1024, 2)
	stage(5, 3, 512, 2048, 2)
	b.globalAvgPool("pool5")
	b.flatten("flatten")
	b.fc("fc1000", 1000)
	b.softmax("prob")
	return b.m
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
