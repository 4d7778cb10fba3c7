package model

import "fmt"

// builder tracks the spatial shape of the activation tensor while layers are
// appended, so convolution arithmetic stays in one place.
type builder struct {
	m       *Model
	h, w, c int   // current spatial shape
	flat    int64 // current vector width after flatten (0 while spatial)
}

func newBuilder(name string, h, w, c int) *builder {
	return &builder{
		m: &Model{
			Name:       name,
			InputElems: int64(h) * int64(w) * int64(c),
		},
		h: h, w: w, c: c,
	}
}

func (b *builder) outElems() int64 {
	if b.flat > 0 {
		return b.flat
	}
	return int64(b.h) * int64(b.w) * int64(b.c)
}

// conv appends a 2-D convolution (same/valid padding folded into outH/outW
// arithmetic with explicit pad). bias follows the architecture convention:
// true for VGG, false for ResNet convolutions (BN provides the shift).
func (b *builder) conv(name string, out, k, stride, pad int, bias bool) {
	if b.flat > 0 {
		panic("model: conv after flatten in " + b.m.Name)
	}
	outH := (b.h+2*pad-k)/stride + 1
	outW := (b.w+2*pad-k)/stride + 1
	params := int64(k) * int64(k) * int64(b.c) * int64(out)
	if bias {
		params += int64(out)
	}
	outElems := int64(outH) * int64(outW) * int64(out)
	// 2 FLOPs per multiply-accumulate.
	flops := 2 * float64(k*k*b.c) * float64(outElems)
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: KindConv,
		Params: params, FwdFLOPs: flops,
		OutputElems: outElems, StashElems: outElems,
	})
	b.h, b.w, b.c = outH, outW, out
}

// bn appends batch normalization over the current channel dimension.
func (b *builder) bn(name string) {
	elems := b.outElems()
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: KindBN,
		Params:      2 * int64(b.c),
		FwdFLOPs:    4 * float64(elems), // normalize, scale, shift
		OutputElems: elems, StashElems: elems,
	})
}

// relu appends a rectified-linear activation. ReLU runs in place, so it adds
// no stash of its own: its output overwrites the predecessor's buffer, which
// is already counted.
func (b *builder) relu(name string) {
	elems := b.outElems()
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: KindReLU,
		FwdFLOPs:    float64(elems),
		OutputElems: elems, StashElems: 0,
	})
}

// maxPool appends k x k max pooling with the given stride.
func (b *builder) maxPool(name string, k, stride int) {
	if b.flat > 0 {
		panic("model: pool after flatten in " + b.m.Name)
	}
	outH := b.h / stride
	outW := b.w / stride
	outElems := int64(outH) * int64(outW) * int64(b.c)
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: KindPool,
		FwdFLOPs:    float64(k*k) * float64(outElems),
		OutputElems: outElems, StashElems: outElems,
	})
	b.h, b.w = outH, outW
}

// globalAvgPool reduces the spatial dimensions to 1x1.
func (b *builder) globalAvgPool(name string) {
	elems := int64(b.c)
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: KindPool,
		FwdFLOPs:    float64(b.h * b.w * b.c),
		OutputElems: elems, StashElems: elems,
	})
	b.h, b.w = 1, 1
}

// flatten reshapes to a vector; free at runtime but a legal cut point.
func (b *builder) flatten(name string) {
	elems := b.outElems()
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: KindFlatten,
		FwdFLOPs:    0,
		OutputElems: elems, StashElems: 0,
	})
	b.flat = elems
}

// fc appends a fully connected layer with bias.
func (b *builder) fc(name string, out int) {
	in := b.outElems()
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: KindFC,
		Params:      in*int64(out) + int64(out),
		FwdFLOPs:    2 * float64(in) * float64(out),
		OutputElems: int64(out), StashElems: int64(out),
	})
	b.flat = int64(out)
	b.c = out
}

// softmax appends the classifier activation.
func (b *builder) softmax(name string) {
	elems := b.outElems()
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: KindSoftmax,
		FwdFLOPs:    5 * float64(elems),
		OutputElems: elems, StashElems: elems,
	})
}

func (b *builder) build() *Model {
	if err := b.m.Validate(); err != nil {
		panic(fmt.Sprintf("model: builder produced invalid model: %v", err))
	}
	return b.m
}
