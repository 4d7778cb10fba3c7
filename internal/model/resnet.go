package model

import "fmt"

// ResNet152 builds the ResNet-152 architecture (He et al.) for 224x224x3
// inputs and 1000 classes: a 7x7 stem, four stages of bottleneck blocks with
// depths [3, 8, 36, 3], global average pooling, and a 1000-way classifier.
//
// Each bottleneck block is aggregated into a single schedulable layer (the
// paper partitions at this granularity too — cutting inside a residual block
// would split its skip connection). Block totals include the three
// convolutions, their batch norms and ReLUs, and the projection shortcut
// where the block changes shape. The construction yields ~60.2 M trainable
// parameters (~230 MB in float32), matching the paper's quoted size.
func ResNet152() *Model {
	b := newBuilder("ResNet-152", 224, 224, 3)
	b.conv("conv1", 64, 7, 2, 3, false)
	b.bn("conv1_bn")
	b.relu("conv1_relu")
	b.maxPool("pool1", 3, 2)

	stage := func(idx, blocks, mid, out int, firstStride int) {
		for i := 0; i < blocks; i++ {
			stride := 1
			if i == 0 {
				stride = firstStride
			}
			bottleneck(b, fmt.Sprintf("res%db%d", idx, i), mid, out, stride)
		}
	}
	stage(2, 3, 64, 256, 1)
	stage(3, 8, 128, 512, 2)
	stage(4, 36, 256, 1024, 2)
	stage(5, 3, 512, 2048, 2)

	b.globalAvgPool("pool5")
	b.flatten("flatten")
	b.fc("fc1000", 1000)
	b.softmax("prob")
	return b.build()
}

// bottleneck appends one aggregated residual bottleneck block:
//
//	x -> 1x1 conv(in->mid), BN, ReLU
//	  -> 3x3 conv(mid->mid, stride s), BN, ReLU
//	  -> 1x1 conv(mid->out), BN
//	  (+ 1x1 projection conv(in->out, stride s) + BN when shape changes)
//	  -> add -> ReLU
//
// Parameters, FLOPs, and stash elements sum over all internal operations;
// the block's boundary output is its final post-ReLU activation.
func bottleneck(b *builder, name string, mid, out, stride int) {
	in := b.c
	inH, inW := b.h, b.w
	outH := (inH-1)/stride + 1
	outW := (inW-1)/stride + 1

	var params int64
	var flops float64
	var stash int64

	// 1x1 reduce at input resolution. Each conv+BN pair stashes two buffers
	// (the conv output feeding BN's backward, and the post-BN/post-ReLU
	// output feeding the next operator); ReLU runs in place.
	c1Out := int64(inH) * int64(inW) * int64(mid)
	params += int64(in) * int64(mid)
	flops += 2 * float64(in) * float64(c1Out)
	stash += 2 * c1Out
	params += 2 * int64(mid)
	flops += 5 * float64(c1Out) // BN (4x) + ReLU (1x)

	// 3x3 at output resolution (stride applies here, standard ResNet v1.5
	// placement used by the reference implementations).
	c2Out := int64(outH) * int64(outW) * int64(mid)
	params += 9 * int64(mid) * int64(mid)
	flops += 2 * 9 * float64(mid) * float64(c2Out)
	stash += 2 * c2Out
	params += 2 * int64(mid)
	flops += 5 * float64(c2Out)

	// 1x1 expand.
	c3Out := int64(outH) * int64(outW) * int64(out)
	params += int64(mid) * int64(out)
	flops += 2 * float64(mid) * float64(c3Out)
	stash += 2 * c3Out // conv + BN outputs
	params += 2 * int64(out)
	flops += 4 * float64(c3Out)

	// Projection shortcut when the block changes shape.
	if in != out || stride != 1 {
		params += int64(in) * int64(out)
		flops += 2 * float64(in) * float64(c3Out)
		stash += 2 * c3Out
		params += 2 * int64(out)
		flops += 4 * float64(c3Out)
	}

	// Residual add and final ReLU.
	flops += 2 * float64(c3Out)
	stash += c3Out // post-ReLU block output

	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: KindBlock,
		Params: params, FwdFLOPs: flops,
		OutputElems: c3Out, StashElems: stash,
	})
	b.h, b.w, b.c = outH, outW, out
}
