package hw

import (
	"fmt"
	"strings"
)

// GPU is one physical device in a cluster.
type GPU struct {
	// ID is the cluster-wide index, dense from 0.
	ID int
	// Type describes the hardware model.
	Type *GPUType
	// Node is the index of the hosting node.
	Node int
	// Slot is the device index within the node.
	Slot int
}

// Name returns a stable human-readable identifier like "n1g2(R)".
func (g *GPU) Name() string {
	return fmt.Sprintf("n%dg%d(%c)", g.Node, g.Slot, g.Type.Code)
}

// Node is one machine: a homogeneous set of GPUs.
type Node struct {
	Index int
	GPUs  []*GPU
}

// LinkKind distinguishes the two interconnect classes in the paper's testbed.
type LinkKind int

const (
	// LinkLocal means both endpoints are the same GPU; transfers are free.
	LinkLocal LinkKind = iota
	// LinkPCIe is intra-node PCIe 3.0 x16.
	LinkPCIe
	// LinkInfiniBand is inter-node 56 Gbps InfiniBand.
	LinkInfiniBand
)

func (k LinkKind) String() string {
	switch k {
	case LinkLocal:
		return "local"
	case LinkPCIe:
		return "pcie"
	case LinkInfiniBand:
		return "infiniband"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// Peak raw bandwidths of the testbed interconnects.
const (
	// PCIePeakBytes is PCIe 3.0 x16: 15.75 GB/s.
	PCIePeakBytes = 15.75e9
	// InfiniBandPeakBytes is 56 Gbps FDR InfiniBand: 7 GB/s.
	InfiniBandPeakBytes = 7e9
)

// Cluster is a set of nodes. GPUs carry global IDs in node-major order. A
// cluster never changes after NewCluster returns it, Table 3 allocations
// included, so one value is safely shared by every caller and goroutine.
type Cluster struct {
	Nodes []*Node
	gpus  []*GPU
	// allocs holds the cluster's Table 3 allocations (or why a policy does
	// not apply), indexed by Policy and built with the cluster.
	allocs [HybridDistribution + 1]struct {
		a   *Allocation
		err error
	}
}

// NewCluster builds a cluster from its layout: one string of GPU type codes
// per node, separated by spaces — "VVVV RRRR GGGG QQQQ" is the Section 8.1
// testbed. A code names a Catalog type or one of extra (a synthetic type,
// say), and a node holds one type only. The devices and nodes live in one
// slab each, a node's GPUs are a capped window of the cluster's, and the
// NP, ED and HD allocations are built along with them.
func NewCluster(layout string, extra ...*GPUType) (*Cluster, error) {
	fields := strings.Fields(layout)
	total := 0
	for _, f := range fields {
		total += len(f)
	}
	if total == 0 {
		return nil, fmt.Errorf("hw: empty cluster layout %q", layout)
	}
	devices, nodes := make([]GPU, total), make([]Node, len(fields))
	c := &Cluster{Nodes: make([]*Node, len(fields)), gpus: make([]*GPU, total)}
	id := 0
	for ni, f := range fields {
		if strings.Count(f, f[:1]) != len(f) {
			return nil, fmt.Errorf("hw: node %d mixes GPU types (%q)", ni, f)
		}
		t, err := typeByCode(f[0], extra)
		if err != nil {
			return nil, err
		}
		first := id
		for s := range len(f) {
			devices[id] = GPU{ID: id, Type: t, Node: ni, Slot: s}
			c.gpus[id] = &devices[id]
			id++
		}
		nodes[ni] = Node{Index: ni, GPUs: c.gpus[first:id:id]}
		c.Nodes[ni] = &nodes[ni]
	}
	for p := range c.allocs {
		c.allocs[p].a, c.allocs[p].err = allocate(c, Policy(p))
	}
	return c, nil
}

// Paper returns the evaluation cluster of Section 8.1: four nodes, each with
// four homogeneous GPUs — TITAN V, TITAN RTX, GeForce RTX 2060, Quadro P4000 —
// 16 GPUs in total. It is the catalog's shared "paper" cluster.
func Paper() *Cluster { return clusterCatalog[0].cluster }

// GPUs returns all devices in ID order.
func (c *Cluster) GPUs() []*GPU { return c.gpus }

// LinkBetween classifies the interconnect between two devices.
func (c *Cluster) LinkBetween(a, b *GPU) LinkKind {
	switch {
	case a.ID == b.ID:
		return LinkLocal
	case a.Node == b.Node:
		return LinkPCIe
	default:
		return LinkInfiniBand
	}
}

// typeString renders a GPU list as the paper's compact code string, e.g.
// "VRGQ" or "VVQQ".
func typeString(gpus []*GPU) string {
	var b strings.Builder
	for _, g := range gpus {
		b.WriteByte(g.Type.Code)
	}
	return b.String()
}

// countByType tallies devices per type code.
func (c *Cluster) countByType() map[byte]int {
	m := make(map[byte]int)
	for _, g := range c.gpus {
		m[g.Type.Code]++
	}
	return m
}
