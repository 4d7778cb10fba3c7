// Package profile is the Section 7 performance model: it predicts per-layer
// computation times on each GPU type, communication times over PCIe and
// InfiniBand, and per-stage memory requirements.
//
// The paper obtains these predictions by profiling each DNN on each GPU type
// and fitting simple link models (peak PCIe bandwidth scaled down by a
// measured constant, a linear regression for InfiniBand). Without the
// physical testbed, this package anchors the compute model on the paper's own
// published single-virtual-worker measurements (Figure 3, Nm=1: homogeneous
// four-stage pipelines whose stage times sum to the whole-model time) and
// keeps the same link-model structure with representative constants.
//
// Layer times scale with each layer's share of the model's total FLOPs; the
// backward pass costs twice the forward pass, the standard ratio for
// convolutional training.
//
// Tables (tables.go) is the same model tabulated per (Perf, model, batch) for
// the partitioner, which prices thousands of layer ranges per plan.
package profile

import (
	"fmt"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/sched"
)

// LinkModel predicts a transfer time as latency + bytes / effective
// bandwidth, where effective bandwidth is the peak scaled by a constant — the
// paper's "scaling-down constant" methodology for PCIe and the linear
// (intercept + slope) regression for InfiniBand.
type LinkModel struct {
	Name       string
	PeakBPS    float64 // peak bandwidth, bytes/second
	Efficiency float64 // fraction of peak achievable in practice
	Latency    float64 // per-transfer fixed cost, seconds
}

// Time predicts the one-way transfer time for a payload of the given size.
func (l LinkModel) Time(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.Latency + float64(bytes)/(l.PeakBPS*l.Efficiency)
}

// EffectiveBPS is the usable bandwidth after scaling down.
func (l LinkModel) EffectiveBPS() float64 { return l.PeakBPS * l.Efficiency }

// Perf is the full performance model.
type Perf struct {
	// PCIe is the intra-node link model (peak 15.75 GB/s scaled down).
	PCIe LinkModel
	// IB is the inter-node InfiniBand model (56 Gbps, linear regression).
	IB LinkModel
	// BwdFwdRatio is backward-pass cost relative to forward (typically 2).
	BwdFwdRatio float64
	// WorkspaceBytes is the fixed per-GPU framework overhead (CUDA context,
	// cuDNN workspaces) charged against device memory.
	WorkspaceBytes int64
	// PSProcBPS is the parameter-server processing rate in bytes/second:
	// serializing, applying, and re-serializing a shard costs shard-bytes /
	// PSProcBPS on top of the wire transfer. TensorFlow parameter servers
	// are CPU-bound at roughly this rate for large dense tensors.
	PSProcBPS float64
	// anchors maps model name -> GPU code -> whole-model training throughput
	// in images/sec for one GPU running every layer (compute only).
	anchors map[string]map[byte]float64
	// genericFLOPS maps GPU code -> effective training FLOP/s used for
	// models without a calibration anchor (synthetic test models).
	genericFLOPS map[byte]float64
}

// Default returns the model calibrated against the paper's testbed.
//
// Compute anchors start from the Figure 3 Nm=1 homogeneous measurements
// (VVVV/RRRR/GGGG/QQQQ absolute throughput) and are raised ~10% to account
// for the intra-node communication those measurements include, so that
// simulating the same configuration lands near the paper's number.
func Default() *Perf {
	return &Perf{
		PCIe: LinkModel{
			Name:       "pcie3x16",
			PeakBPS:    hw.PCIePeakBytes,
			Efficiency: 0.70, // measured scaling-down constant analog
			Latency:    15e-6,
		},
		IB: LinkModel{
			Name:       "ib-56g",
			PeakBPS:    hw.InfiniBandPeakBytes,
			Efficiency: 0.18, // TensorFlow gRPC over IPoIB reaches a small
			// fraction of line rate; this slope reproduces the paper's
			// heterogeneous Nm=1 anchors (e.g. VRGQ ResNet-152 at 42 img/s).
			Latency: 300e-6,
		},
		BwdFwdRatio:    2.0,
		WorkspaceBytes: 768 << 20,
		PSProcBPS:      1.5e9,
		anchors: map[string]map[byte]float64{
			"ResNet-152": {'V': 106, 'R': 96, 'G': 64, 'Q': 47},
			"VGG-19":     {'V': 131, 'R': 118, 'G': 68, 'Q': 56},
		},
		genericFLOPS: map[byte]float64{
			'V': 7.0e12, 'R': 6.3e12, 'G': 4.2e12, 'Q': 3.1e12,
		},
	}
}

// SetAnchor overrides or installs the compute anchor for (model, GPU code):
// whole-model images/sec on a single device.
func (p *Perf) SetAnchor(modelName string, code byte, imagesPerSec float64) {
	if p.anchors == nil {
		p.anchors = make(map[string]map[byte]float64)
	}
	if p.anchors[modelName] == nil {
		p.anchors[modelName] = make(map[byte]float64)
	}
	p.anchors[modelName][code] = imagesPerSec
}

// WholeModelTime predicts the fwd+bwd compute time for one minibatch if a
// single GPU of type g executed every layer of m.
func (p *Perf) WholeModelTime(m *model.Model, g *hw.GPUType, batch int) (float64, error) {
	return p.wholeModelTime(m.Name, m.TotalFwdFLOPs(), g, batch)
}

// wholeModelTime is WholeModelTime for a model given by its name and total
// forward FLOPs, so Tables can answer without re-summing the layers.
func (p *Perf) wholeModelTime(name string, totalFwdFLOPs float64, g *hw.GPUType, batch int) (float64, error) {
	if a, ok := p.anchors[name]; ok {
		if rate, ok := a[g.Code]; ok && rate > 0 {
			return float64(batch) / rate, nil
		}
	}
	flops, ok := p.genericFLOPS[g.Code]
	if !ok {
		return 0, fmt.Errorf("profile: no anchor or generic rate for GPU %q", string(g.Code))
	}
	perSample := totalFwdFLOPs * (1 + p.BwdFwdRatio)
	return float64(batch) * perSample / flops, nil
}

// layerTime predicts forward and backward compute times for layer li of m on
// GPU type g, for a full minibatch. Each layer's share of the whole-model
// time follows its share of total FLOPs.
func (p *Perf) layerTime(m *model.Model, li int, g *hw.GPUType, batch int) (fwd, bwd float64, err error) {
	whole, err := p.WholeModelTime(m, g, batch)
	if err != nil {
		return 0, 0, err
	}
	total := m.TotalFwdFLOPs()
	if total <= 0 {
		return 0, 0, fmt.Errorf("profile: model %s has zero FLOPs", m.Name)
	}
	share := m.Layers[li].FwdFLOPs / total
	layer := whole * share
	fwd = layer / (1 + p.BwdFwdRatio)
	bwd = layer - fwd
	return fwd, bwd, nil
}

// StageTime predicts forward and backward compute times for the layer range
// [lo, hi) of m on GPU type g, for a full minibatch.
func (p *Perf) StageTime(m *model.Model, lo, hi int, g *hw.GPUType, batch int) (fwd, bwd float64, err error) {
	whole, err := p.WholeModelTime(m, g, batch)
	if err != nil {
		return 0, 0, err
	}
	total := m.TotalFwdFLOPs()
	var flops float64
	for i := lo; i < hi; i++ {
		flops += m.Layers[i].FwdFLOPs
	}
	stage := whole * flops / total
	fwd = stage / (1 + p.BwdFwdRatio)
	bwd = stage - fwd
	return fwd, bwd, nil
}

// TransferTime predicts a one-way transfer over the given interconnect.
func (p *Perf) TransferTime(bytes int64, kind hw.LinkKind) float64 {
	switch kind {
	case hw.LinkLocal:
		return 0
	case hw.LinkPCIe:
		return p.PCIe.Time(bytes)
	case hw.LinkInfiniBand:
		return p.IB.Time(bytes)
	default:
		panic(fmt.Sprintf("profile: unknown link kind %v", kind))
	}
}

// BoundaryTime predicts the time to move the activations (forward) or local
// gradients (backward) across the cut after layer cutAfter, for one
// minibatch. The two directions carry the same payload size.
func (p *Perf) BoundaryTime(m *model.Model, cutAfter, batch int, kind hw.LinkKind) float64 {
	return p.TransferTime(m.BoundaryBytes(cutAfter, batch), kind)
}

// ChunkMemory predicts the device memory one chunk [lo, hi) needs when it
// runs as virtual stage vs of a vstages-deep virtual pipeline: WeightVersions
// weight-sized buffers, the per-chunk activation stash under the schedule's
// ChunkStash bound, plus the fixed per-GPU workspace. A contiguous stage is
// the degenerate vs = stage, vstages = k case. Only the stash term depends on
// the schedule's in-flight model — GPipe's fill-drain stashes the whole
// Nm-wave on every stage, HetPipe's FIFO holds min(Nm, 2*(k-stage)-1), strict
// 1F1B at most stage-depth activations, which is what lets the partitioner
// admit a larger Nm under 1F1B on memory-constrained workers — and the
// weight term on its WeightVersions (3 for PipeDream-2BW, 2 otherwise).
func (p *Perf) ChunkMemory(s sched.Schedule, m *model.Model, lo, hi, vs, vstages, nm, batch int) int64 {
	sc := sched.Or(s)
	var weights, stash int64
	for i := lo; i < hi; i++ {
		weights += m.Layers[i].WeightBytes()
		stash += m.Layers[i].StashElems * model.BytesPerElem
	}
	c := int64(sc.ChunkStash(vs, vstages, nm))
	return int64(sc.WeightVersions())*weights + stash*int64(batch)*c + p.WorkspaceBytes
}
