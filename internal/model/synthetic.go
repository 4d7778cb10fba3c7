package model

import "fmt"

// Synthetic builds a uniform n-layer chain for tests and microbenchmarks:
// every layer carries the same parameter count, FLOPs, and activation size.
// Uniform chains make optimal partitions easy to reason about in tests.
func Synthetic(name string, n int, paramsPer int64, flopsPer float64, elemsPer int64) *Model {
	m := &Model{Name: name, InputElems: elemsPer}
	for i := 0; i < n; i++ {
		m.Layers = append(m.Layers, Layer{
			Name:        fmt.Sprintf("l%d", i),
			Kind:        KindConv,
			Params:      paramsPer,
			FwdFLOPs:    flopsPer,
			OutputElems: elemsPer,
			StashElems:  elemsPer,
		})
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// Skewed builds an n-layer chain whose per-layer FLOPs follow the given
// weights while parameters stay uniform — useful for exercising the
// partitioner's load balancing away from trivial equal splits.
func Skewed(name string, flopsWeights []float64, paramsPer int64, elemsPer int64) *Model {
	m := &Model{Name: name, InputElems: elemsPer}
	for i, w := range flopsWeights {
		if w < 0 {
			panic("model: negative FLOPs weight")
		}
		m.Layers = append(m.Layers, Layer{
			Name:        fmt.Sprintf("l%d", i),
			Kind:        KindConv,
			Params:      paramsPer,
			FwdFLOPs:    w,
			OutputElems: elemsPer,
			StashElems:  elemsPer,
		})
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// ByName resolves a zoo model by name: the two paper evaluation models
// (vgg19, resnet152) plus the smaller siblings (vgg16, resnet50, alexnet)
// used for scaling studies and sweeps. Canonical display names ("VGG-19")
// are accepted alongside the compact keys.
func ByName(name string) (*Model, error) {
	switch name {
	case "vgg19", "VGG-19", "vgg-19":
		return VGG19(), nil
	case "resnet152", "ResNet-152", "resnet-152":
		return ResNet152(), nil
	case "vgg16", "VGG-16", "vgg-16":
		return VGG16(), nil
	case "resnet50", "ResNet-50", "resnet-50":
		return ResNet50(), nil
	case "alexnet", "AlexNet":
		return AlexNet(), nil
	default:
		return nil, fmt.Errorf("model: unknown model %q (have %v)", name, Names())
	}
}

// Names lists the zoo's compact model keys accepted by ByName, paper models
// first.
func Names() []string {
	return []string{"vgg19", "resnet152", "vgg16", "resnet50", "alexnet"}
}

// PaperModels returns the two evaluation models in the paper's order of
// presentation (ResNet-152, then VGG-19).
func PaperModels() []*Model {
	return []*Model{ResNet152(), VGG19()}
}
