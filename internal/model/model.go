// Package model describes DNN models as linear graphs of layers annotated
// with the quantities HetPipe's partitioner, pipeline scheduler, and
// communication model need: trainable parameter counts, forward FLOPs,
// boundary activation sizes, and backward-pass stash sizes.
//
// The package ships full analytic definitions of the two evaluation models of
// the paper — VGG-19 (Simonyan & Zisserman, ~143.7 M parameters ≈ 548 MB) and
// ResNet-152 (He et al., ~60.2 M parameters ≈ 230 MB) — built layer by layer
// from the published architectures, plus small synthetic models for tests.
//
// Conventions: all per-layer quantities are per *sample*; batch scaling
// happens at the call sites that know the minibatch size. Activations and
// weights are float32 (4 bytes), matching the paper's TensorFlow setup.
//
// A Model is immutable once built: nothing writes to one after its
// constructor returns, so ByName can share one per zoo entry process-wide
// and the planner's cost tables (internal/profile) can identify a model by
// its pointer.
package model

import "fmt"

// BytesPerElem is the width of weights and activations (float32).
const BytesPerElem = 4

// Kind classifies a layer for reporting and cost modeling.
type Kind int

const (
	// kindConv is a 2-D convolution (possibly with bias).
	kindConv Kind = iota
	// kindBN is batch normalization.
	kindBN
	// kindReLU is a rectified-linear activation.
	kindReLU
	// kindPool is max or average pooling.
	kindPool
	// kindFC is a fully connected layer.
	kindFC
	// kindFlatten reshapes spatial activations into a vector.
	kindFlatten
	// kindSoftmax is the final classifier activation.
	kindSoftmax
	// kindBlock is an aggregated residual bottleneck block (its internal
	// convolutions, batch norms, ReLUs, and any projection shortcut are
	// summed into the block's totals).
	kindBlock
)

func (k Kind) String() string {
	switch k {
	case kindConv:
		return "conv"
	case kindBN:
		return "bn"
	case kindReLU:
		return "relu"
	case kindPool:
		return "pool"
	case kindFC:
		return "fc"
	case kindFlatten:
		return "flatten"
	case kindSoftmax:
		return "softmax"
	case kindBlock:
		return "block"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Layer is one schedulable unit of a model.
type Layer struct {
	// Name is unique within the model, e.g. "conv3_4" or "res4b17".
	Name string
	// Kind classifies the layer.
	Kind Kind
	// Params is the number of trainable parameters.
	Params int64
	// FwdFLOPs is the forward-pass floating-point operation count per sample.
	FwdFLOPs float64
	// OutputElems is the number of activation elements the layer emits per
	// sample. A partition cut after this layer transfers OutputElems
	// activations forward and the same number of gradients backward.
	OutputElems int64
	// StashElems is the number of activation elements that must stay
	// resident in GPU memory from the layer's forward pass until its
	// backward pass. For simple layers this equals OutputElems; for
	// aggregated blocks it includes every internal activation.
	StashElems int64
}

// WeightBytes is the parameter footprint in bytes.
func (l *Layer) WeightBytes() int64 { return l.Params * BytesPerElem }

// Model is a linear chain of layers. Residual models are linearized at
// bottleneck-block granularity, so every adjacent pair is a legal partition
// boundary and boundary traffic is exactly the predecessor's output.
type Model struct {
	// Name identifies the model, e.g. "VGG-19".
	Name string
	// InputElems is the per-sample input size (e.g. 224*224*3).
	InputElems int64
	// Layers is the chain in forward order.
	Layers []Layer
}

// totalParams sums trainable parameters over all layers.
func (m *Model) totalParams() int64 {
	var n int64
	for i := range m.Layers {
		n += m.Layers[i].Params
	}
	return n
}

// ParamBytes is the full parameter footprint in bytes (float32).
func (m *Model) ParamBytes() int64 { return m.totalParams() * BytesPerElem }

// TotalFwdFLOPs sums per-sample forward FLOPs over all layers.
func (m *Model) TotalFwdFLOPs() float64 {
	var f float64
	for i := range m.Layers {
		f += m.Layers[i].FwdFLOPs
	}
	return f
}

// stashBytesPerSample is the per-sample activation memory needed to keep
// every layer's forward results resident for the backward pass.
func (m *Model) stashBytesPerSample() int64 {
	var n int64
	for i := range m.Layers {
		n += m.Layers[i].StashElems
	}
	return n * BytesPerElem
}

// boundaryElems reports the activation elements crossing a cut placed after
// layer index i (0-based). Cutting before the first layer (i == -1) crosses
// the raw input.
func (m *Model) boundaryElems(i int) int64 {
	if i < 0 {
		return m.InputElems
	}
	return m.Layers[i].OutputElems
}

// BoundaryBytes is boundaryElems scaled to bytes for a whole minibatch.
func (m *Model) BoundaryBytes(i, batch int) int64 {
	return m.boundaryElems(i) * BytesPerElem * int64(batch)
}

// TrainingFootprintBytes estimates the memory one GPU needs to train the
// whole model with the given batch size: weights + gradient buffer +
// a full activation stash for one in-flight minibatch. This is the quantity
// that decides whether a standalone DP worker can host the model at all
// (the paper's "too big to be loaded in four whimpy GPUs" condition for
// ResNet-152 on 6 GB devices).
func (m *Model) TrainingFootprintBytes(batch int) int64 {
	return 2*m.ParamBytes() + m.stashBytesPerSample()*int64(batch)
}

// Validate checks internal consistency of the chain. A model ByName
// returned was checked when it was built, so checking it again costs
// nothing.
func (m *Model) Validate() error {
	if shared(m) {
		return nil
	}
	return m.validate()
}

// validate is Validate's check, which builds a set of the layer names.
func (m *Model) validate() error {
	if m.Name == "" {
		return fmt.Errorf("model: empty name")
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("model %s: no layers", m.Name)
	}
	if m.InputElems <= 0 {
		return fmt.Errorf("model %s: non-positive input size", m.Name)
	}
	seen := make(map[string]bool, len(m.Layers))
	for i := range m.Layers {
		l := &m.Layers[i]
		if l.Name == "" {
			return fmt.Errorf("model %s: layer %d has no name", m.Name, i)
		}
		if seen[l.Name] {
			return fmt.Errorf("model %s: duplicate layer name %q", m.Name, l.Name)
		}
		seen[l.Name] = true
		if l.Params < 0 || l.FwdFLOPs < 0 || l.OutputElems <= 0 || l.StashElems < 0 {
			return fmt.Errorf("model %s: layer %q has invalid quantities", m.Name, l.Name)
		}
	}
	return nil
}
