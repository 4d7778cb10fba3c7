package model

import (
	"math"
	"testing"
)

func TestVGG19ParamCount(t *testing.T) {
	m := VGG19()
	// Published exact count for VGG-19 with biases: 143,667,240.
	const want = 143667240
	if got := m.totalParams(); got != want {
		t.Errorf("VGG-19 params = %d, want %d", got, want)
	}
	// The paper quotes 548 MB for the parameter set.
	mb := float64(m.ParamBytes()) / 1e6
	if mb < 540 || mb > 580 {
		t.Errorf("VGG-19 param bytes = %.1f MB, want ~548 MB", mb)
	}
}

func TestResNet152ParamCount(t *testing.T) {
	m := ResNet152()
	// Published count (torchvision): 60,192,808. Allow 1% for accounting
	// differences in batch-norm bookkeeping.
	const want = 60192808
	got := m.totalParams()
	if math.Abs(float64(got-want))/float64(want) > 0.01 {
		t.Errorf("ResNet-152 params = %d, want ~%d", got, want)
	}
	// The paper quotes 230 MB for the parameter set.
	mb := float64(m.ParamBytes()) / 1e6
	if mb < 225 || mb > 245 {
		t.Errorf("ResNet-152 param bytes = %.1f MB, want ~230 MB", mb)
	}
}

func TestVGG19Structure(t *testing.T) {
	m := VGG19()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	convs, fcs := 0, 0
	for _, l := range m.Layers {
		switch l.Kind {
		case kindConv:
			convs++
		case kindFC:
			fcs++
		}
	}
	if convs != 16 {
		t.Errorf("VGG-19 convs = %d, want 16", convs)
	}
	if fcs != 3 {
		t.Errorf("VGG-19 FCs = %d, want 3", fcs)
	}
	// fc6 dominates the parameter count: 25088*4096 + 4096.
	var fc6 *Layer
	for i := range m.Layers {
		if m.Layers[i].Name == "fc6" {
			fc6 = &m.Layers[i]
		}
	}
	if fc6 == nil {
		t.Fatal("fc6 missing")
	}
	if want := int64(25088*4096 + 4096); fc6.Params != want {
		t.Errorf("fc6 params = %d, want %d", fc6.Params, want)
	}
}

func TestResNet152Structure(t *testing.T) {
	m := ResNet152()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for _, l := range m.Layers {
		if l.Kind == kindBlock {
			blocks++
		}
	}
	if want := 3 + 8 + 36 + 3; blocks != want {
		t.Errorf("ResNet-152 blocks = %d, want %d", blocks, want)
	}
	// Final boundary before the classifier head collapses to 2048 channels.
	last := m.Layers[len(m.Layers)-1]
	if last.Kind != kindSoftmax || last.OutputElems != 1000 {
		t.Errorf("final layer = %v/%d, want softmax/1000", last.Kind, last.OutputElems)
	}
}

func TestBoundaryElems(t *testing.T) {
	m := VGG19()
	if got := m.boundaryElems(-1); got != 224*224*3 {
		t.Errorf("input boundary = %d, want %d", got, 224*224*3)
	}
	// First conv emits 224x224x64.
	if got := m.boundaryElems(0); got != 224*224*64 {
		t.Errorf("conv1_1 boundary = %d, want %d", got, 224*224*64)
	}
	if got := m.BoundaryBytes(0, 32); got != 224*224*64*4*32 {
		t.Errorf("conv1_1 boundary bytes = %d", got)
	}
}

// The memory model must reproduce the paper's feasibility facts:
// ResNet-152 training at batch 32 does not fit a 6 GB RTX 2060 but fits an
// 8 GB Quadro P4000 (Horovod ran it on 12 GPUs, excluding the G node);
// VGG-19 fits all 16 GPUs including the 6 GB parts.
func TestTrainingFootprintMatchesPaperFeasibility(t *testing.T) {
	const gib = int64(1) << 30
	const batch = 32
	resnet := ResNet152().TrainingFootprintBytes(batch)
	if resnet <= 6*gib {
		t.Errorf("ResNet-152 footprint %.2f GiB should exceed 6 GiB", float64(resnet)/float64(gib))
	}
	if resnet > 8*gib {
		t.Errorf("ResNet-152 footprint %.2f GiB should fit in 8 GiB", float64(resnet)/float64(gib))
	}
	vgg := VGG19().TrainingFootprintBytes(batch)
	if vgg > 6*gib {
		t.Errorf("VGG-19 footprint %.2f GiB should fit in 6 GiB", float64(vgg)/float64(gib))
	}
}

func TestFLOPsOrdersOfMagnitude(t *testing.T) {
	// Published per-sample forward costs: VGG-19 ~19.6 GMACs, ResNet-152
	// ~11.5 GMACs; at 2 FLOPs per multiply-add that is ~39.2 and ~23.1
	// GFLOPs. Our counts add small BN/ReLU/pool overheads.
	vgg := VGG19().TotalFwdFLOPs() / 1e9
	if vgg < 38 || vgg > 42 {
		t.Errorf("VGG-19 fwd GFLOPs = %.1f, want ~39.2", vgg)
	}
	rn := ResNet152().TotalFwdFLOPs() / 1e9
	if rn < 22 || rn > 26 {
		t.Errorf("ResNet-152 fwd GFLOPs = %.1f, want ~23.1", rn)
	}
}

func TestSyntheticUniform(t *testing.T) {
	m := Synthetic("t", 8, 10, 100, 5)
	if len(m.Layers) != 8 {
		t.Fatalf("layers = %d, want 8", len(m.Layers))
	}
	if m.totalParams() != 80 {
		t.Errorf("params = %d, want 80", m.totalParams())
	}
	if m.TotalFwdFLOPs() != 800 {
		t.Errorf("flops = %v, want 800", m.TotalFwdFLOPs())
	}
}

func TestSkewed(t *testing.T) {
	m := Skewed("s", []float64{1, 2, 3}, 4, 5)
	if m.TotalFwdFLOPs() != 6 {
		t.Errorf("flops = %v, want 6", m.TotalFwdFLOPs())
	}
	if m.Layers[2].FwdFLOPs != 3 {
		t.Errorf("layer 2 flops = %v, want 3", m.Layers[2].FwdFLOPs)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("lenet"); err == nil {
		t.Error("ByName(lenet) should fail")
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	bad := &Model{Name: "x", InputElems: 1, Layers: []Layer{
		{Name: "a", OutputElems: 1},
		{Name: "a", OutputElems: 1},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate layer names should fail validation")
	}
	empty := &Model{Name: "x", InputElems: 1}
	if err := empty.Validate(); err == nil {
		t.Error("empty model should fail validation")
	}
}
