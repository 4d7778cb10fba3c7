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
	// cluster is the shape, built once per process from its layout.
	cluster *Cluster
}

// clusterCatalog lists the shapes the sweep engine can explore, each one row
// of NewCluster's layout notation. The "paper" entry is the Section 8.1
// testbed; the others scale it down ("mini"), up ("paper-x2"), or strip it to
// whimpy parts only ("whimpy").
var clusterCatalog = []ClusterSpec{
	{"paper", "4 nodes x 4 GPUs (TITAN V / TITAN RTX / RTX 2060 / Quadro P4000), 16 GPUs — the Section 8.1 testbed",
		mustCluster("VVVV RRRR GGGG QQQQ")},
	{"paper-x2", "8 nodes x 4 GPUs (two nodes per type), 32 GPUs — the paper testbed doubled",
		mustCluster("VVVV VVVV RRRR RRRR GGGG GGGG QQQQ QQQQ")},
	{"mini", "4 nodes x 2 GPUs (one node per type), 8 GPUs — the paper testbed halved",
		mustCluster("VV RR GG QQ")},
	{"whimpy", "4 nodes x 4 GPUs of only the two whimpy types (RTX 2060, Quadro P4000), 16 GPUs — no high-end parts (HD undefined)",
		mustCluster("GGGG QQQQ GGGG QQQQ")},
}

// mustCluster builds a catalog row's cluster. A row that does not parse is a
// bug in the table, not an input.
func mustCluster(layout string) *Cluster {
	c, err := NewCluster(layout)
	if err != nil {
		panic(err)
	}
	return c
}

// ClusterCatalog returns the named cluster shapes in catalog order. The
// slice is the package's own: callers read it and never write to it.
func ClusterCatalog() []ClusterSpec { return clusterCatalog }

// ClusterNames lists the catalog keys in catalog order.
func ClusterNames() []string {
	var out []string
	for _, s := range clusterCatalog {
		out = append(out, s.Name)
	}
	return out
}

// ClusterByName returns a cataloged cluster shape: the catalog's one shared,
// immutable cluster for that name, the same pointer on every call.
func ClusterByName(name string) (*Cluster, error) {
	for _, s := range clusterCatalog {
		if s.Name == name {
			return s.cluster, nil
		}
	}
	names := ClusterNames()
	sort.Strings(names)
	return nil, fmt.Errorf("hw: unknown cluster %q (have %v)", name, names)
}
