// Package hw models the heterogeneous GPU cluster hardware of the HetPipe
// paper: the four GPU types of Table 1, nodes with homogeneous GPU sets,
// PCIe 3.0 x16 intra-node links, 56 Gbps InfiniBand inter-node links, and the
// three resource-allocation policies of Table 3 (NP, ED, HD) plus the
// incremental GPU sets of Table 4.
//
// A cluster is data: a layout of node type-code strings, "VVVV RRRR GGGG
// QQQQ" for the Section 8.1 testbed, from which NewCluster builds the
// devices, the nodes and the NP/ED/HD allocations at once. The catalog's
// shapes are built once per process; ClusterByName and Paper return those
// shared values, which nothing writes to after they are built, so Allocate
// is a lookup and any number of goroutines may read them.
//
// The package carries only static hardware facts. Timing predictions built on
// top of these facts (effective compute rates, the PCIe scaling-down
// constant, the InfiniBand linear-regression model) live in internal/profile,
// mirroring the paper's split between cluster configuration and the Section 7
// performance model.
package hw

import "fmt"

// GPUType describes one row of Table 1.
type GPUType struct {
	// Name is the marketing name, e.g. "TITAN V".
	Name string
	// Code is the single-letter abbreviation the paper uses in allocation
	// strings: 'V', 'R', 'G', or 'Q'.
	Code byte
	// Arch is the microarchitecture generation.
	Arch string
	// CUDACores is the shader core count.
	CUDACores int
	// BoostMHz is the boost clock in MHz.
	BoostMHz int
	// MemoryBytes is the on-board memory capacity.
	MemoryBytes int64
	// MemBandwidth is the peak memory bandwidth in bytes/second.
	MemBandwidth float64
}

const gib = int64(1) << 30

// The four GPU types of Table 1. Memory sizes are the marketing GB figures
// interpreted as GiB; bandwidths are GB/s as printed.
var (
	TitanV = &GPUType{
		Name: "TITAN V", Code: 'V', Arch: "Volta",
		CUDACores: 5120, BoostMHz: 1455,
		MemoryBytes: 12 * gib, MemBandwidth: 653e9,
	}
	TitanRTX = &GPUType{
		Name: "TITAN RTX", Code: 'R', Arch: "Turing",
		CUDACores: 4608, BoostMHz: 1770,
		MemoryBytes: 24 * gib, MemBandwidth: 672e9,
	}
	rtx2060 = &GPUType{
		Name: "GeForce RTX 2060", Code: 'G', Arch: "Turing",
		CUDACores: 1920, BoostMHz: 1680,
		MemoryBytes: 6 * gib, MemBandwidth: 336e9,
	}
	QuadroP4000 = &GPUType{
		Name: "Quadro P4000", Code: 'Q', Arch: "Pascal",
		CUDACores: 1792, BoostMHz: 1480,
		MemoryBytes: 8 * gib, MemBandwidth: 243e9,
	}
)

// catalog is the four paper GPU types in the paper's V, R, G, Q order.
var catalog = []*GPUType{TitanV, TitanRTX, rtx2060, QuadroP4000}

// Catalog lists the four paper GPU types in the paper's V, R, G, Q order.
// The slice is the package's own: callers read it and never write to it.
func Catalog() []*GPUType { return catalog }

// typeByCode resolves a single-letter GPU code ('V','R','G','Q') among the
// catalog types, then among extra.
func typeByCode(code byte, extra []*GPUType) (*GPUType, error) {
	for _, types := range [2][]*GPUType{catalog, extra} {
		for _, t := range types {
			if t.Code == code {
				return t, nil
			}
		}
	}
	return nil, fmt.Errorf("hw: unknown GPU code %q", string(code))
}

func (t *GPUType) String() string { return t.Name }
