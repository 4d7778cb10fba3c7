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
			Kind:        kindConv,
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
			Kind:        kindConv,
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

// PaperModels returns the two evaluation models in the paper's order of
// presentation (ResNet-152, then VGG-19).
func PaperModels() []*Model {
	return []*Model{ResNet152(), VGG19()}
}
