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

// Cluster is a set of nodes. GPUs carry global IDs in node-major order.
type Cluster struct {
	Nodes []*Node
	gpus  []*GPU
}

// NewCluster builds a cluster from per-node GPU type assignments:
// nodeTypes[i] gives the (homogeneous) GPU type and count for node i. The
// devices and nodes live in one slab each, and a node's GPUs are a capped
// window of the cluster's.
func NewCluster(nodeTypes []struct {
	Type  *GPUType
	Count int
}) *Cluster {
	total := 0
	for _, nt := range nodeTypes {
		total += nt.Count
	}
	devices, nodes := make([]GPU, total), make([]Node, len(nodeTypes))
	c := &Cluster{Nodes: make([]*Node, len(nodeTypes)), gpus: make([]*GPU, total)}
	id := 0
	for ni, nt := range nodeTypes {
		first := id
		for s := 0; s < nt.Count; s++ {
			devices[id] = GPU{ID: id, Type: nt.Type, Node: ni, Slot: s}
			c.gpus[id] = &devices[id]
			id++
		}
		nodes[ni] = Node{Index: ni, GPUs: c.gpus[first:id:id]}
		c.Nodes[ni] = &nodes[ni]
	}
	return c
}

// Paper returns the evaluation cluster of Section 8.1: four nodes, each with
// four homogeneous GPUs — TITAN V, TITAN RTX, GeForce RTX 2060, Quadro P4000 —
// 16 GPUs in total.
func Paper() *Cluster {
	return NewCluster([]struct {
		Type  *GPUType
		Count int
	}{
		{TitanV, 4},
		{TitanRTX, 4},
		{RTX2060, 4},
		{QuadroP4000, 4},
	})
}

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

// TypeString renders a GPU list as the paper's compact code string, e.g.
// "VRGQ" or "VVQQ".
func TypeString(gpus []*GPU) string {
	var b strings.Builder
	for _, g := range gpus {
		b.WriteByte(g.Type.Code)
	}
	return b.String()
}

// CountByType tallies devices per type code.
func (c *Cluster) CountByType() map[byte]int {
	m := make(map[byte]int)
	for _, g := range c.gpus {
		m[g.Type.Code]++
	}
	return m
}
