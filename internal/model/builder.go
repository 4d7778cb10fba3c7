package model

// builder tracks the spatial shape of the activation tensor while layers are
// appended, so convolution arithmetic stays in one place.
type builder struct {
	m       *Model
	h, w, c int   // current spatial shape
	flat    int64 // current vector width after flatten (0 while spatial)
}

// newBuilder starts a model of exactly layers layers, whose layer slice is
// sized once (TestZooLayerSlicesAreExact holds every constructor to its
// count).
func newBuilder(name string, layers, h, w, c int) *builder {
	return &builder{
		m: &Model{
			Name:       name,
			InputElems: int64(h) * int64(w) * int64(c),
			Layers:     make([]Layer, 0, layers),
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
		Name: name, Kind: kindConv,
		Params: params, FwdFLOPs: flops,
		OutputElems: outElems, StashElems: outElems,
	})
	b.h, b.w, b.c = outH, outW, out
}

// bn appends batch normalization over the current channel dimension.
func (b *builder) bn(name string) {
	elems := b.outElems()
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: kindBN,
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
		Name: name, Kind: kindReLU,
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
		Name: name, Kind: kindPool,
		FwdFLOPs:    float64(k*k) * float64(outElems),
		OutputElems: outElems, StashElems: outElems,
	})
	b.h, b.w = outH, outW
}

// globalAvgPool reduces the spatial dimensions to 1x1.
func (b *builder) globalAvgPool(name string) {
	elems := int64(b.c)
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: kindPool,
		FwdFLOPs:    float64(b.h * b.w * b.c),
		OutputElems: elems, StashElems: elems,
	})
	b.h, b.w = 1, 1
}

// flatten reshapes to a vector; free at runtime but a legal cut point.
func (b *builder) flatten(name string) {
	elems := b.outElems()
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: kindFlatten,
		FwdFLOPs:    0,
		OutputElems: elems, StashElems: 0,
	})
	b.flat = elems
}

// fc appends a fully connected layer with bias.
func (b *builder) fc(name string, out int) {
	in := b.outElems()
	b.m.Layers = append(b.m.Layers, Layer{
		Name: name, Kind: kindFC,
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
		Name: name, Kind: kindSoftmax,
		FwdFLOPs:    5 * float64(elems),
		OutputElems: elems, StashElems: elems,
	})
}
