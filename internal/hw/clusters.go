package hw

import (
	"fmt"
	"sort"
)

// ClusterSpec is one entry of the named cluster catalog: a cluster shape the
// sweep engine (and the CLIs) can select by name.
type ClusterSpec struct {
	// Name is the catalog key, e.g. "paper".
	Name string
	// Description summarizes the shape for listings.
	Description string
	// Build constructs a fresh cluster instance. Every call returns an
	// independent inventory so concurrent scenario runs never share GPUs.
	Build func() *Cluster
}

// clusterCatalog lists the shapes the sweep engine can explore. The "paper"
// entry is the Section 8.1 testbed; the others scale it down ("mini"), up
// ("paper-x2"), or strip it to whimpy parts only ("whimpy").
var clusterCatalog = []ClusterSpec{
	{
		Name:        "paper",
		Description: "4 nodes x 4 GPUs (TITAN V / TITAN RTX / RTX 2060 / Quadro P4000), 16 GPUs — the Section 8.1 testbed",
		Build:       Paper,
	},
	{
		Name:        "paper-x2",
		Description: "8 nodes x 4 GPUs (two nodes per type), 32 GPUs — the paper testbed doubled",
		Build: func() *Cluster {
			return NewCluster([]struct {
				Type  *GPUType
				Count int
			}{
				{TitanV, 4}, {TitanV, 4},
				{TitanRTX, 4}, {TitanRTX, 4},
				{rtx2060, 4}, {rtx2060, 4},
				{QuadroP4000, 4}, {QuadroP4000, 4},
			})
		},
	},
	{
		Name:        "mini",
		Description: "4 nodes x 2 GPUs (one node per type), 8 GPUs — the paper testbed halved",
		Build: func() *Cluster {
			return NewCluster([]struct {
				Type  *GPUType
				Count int
			}{
				{TitanV, 2},
				{TitanRTX, 2},
				{rtx2060, 2},
				{QuadroP4000, 2},
			})
		},
	},
	{
		Name:        "whimpy",
		Description: "4 nodes x 4 GPUs of only the two whimpy types (RTX 2060, Quadro P4000), 16 GPUs — no high-end parts (HD undefined)",
		Build: func() *Cluster {
			return NewCluster([]struct {
				Type  *GPUType
				Count int
			}{
				{rtx2060, 4},
				{QuadroP4000, 4},
				{rtx2060, 4},
				{QuadroP4000, 4},
			})
		},
	},
}

// ClusterCatalog returns the named cluster shapes in catalog order.
func ClusterCatalog() []ClusterSpec {
	return append([]ClusterSpec(nil), clusterCatalog...)
}

// ClusterNames lists the catalog keys in catalog order.
func ClusterNames() []string {
	var out []string
	for _, s := range clusterCatalog {
		out = append(out, s.Name)
	}
	return out
}

// ClusterByName builds a fresh instance of a cataloged cluster shape.
func ClusterByName(name string) (*Cluster, error) {
	for _, s := range clusterCatalog {
		if s.Name == name {
			return s.Build(), nil
		}
	}
	names := ClusterNames()
	sort.Strings(names)
	return nil, fmt.Errorf("hw: unknown cluster %q (have %v)", name, names)
}
