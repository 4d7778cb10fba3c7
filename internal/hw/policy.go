package hw

import (
	"fmt"
	"sort"
	"strings"
)

// Policy selects one of the Table 3 resource-allocation policies.
type Policy int

const (
	// NodePartition (NP) assigns one whole node per virtual worker:
	// homogeneous GPUs, minimal intra-VW communication, but heterogeneous
	// performance across virtual workers (straggler-prone under DP).
	NodePartition Policy = iota
	// EqualDistribution (ED) gives every virtual worker one GPU from each
	// node: identical resources per VW (no stragglers), but every pipeline
	// stage boundary crosses InfiniBand.
	EqualDistribution
	// HybridDistribution (HD) pairs GPU types so that aggregate compute and
	// memory are balanced: two VWs get VVQQ, two get RRGG.
	HybridDistribution
)

func (p Policy) String() string {
	switch p {
	case NodePartition:
		return "NP"
	case EqualDistribution:
		return "ED"
	case HybridDistribution:
		return "HD"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Policies lists the three paper policies in Table 3 order.
func Policies() []Policy {
	return []Policy{NodePartition, EqualDistribution, HybridDistribution}
}

// PolicyByName resolves a policy abbreviation ("NP", "ED", "HD"), case
// insensitively.
func PolicyByName(name string) (Policy, error) {
	switch strings.ToUpper(name) {
	case "NP":
		return NodePartition, nil
	case "ED":
		return EqualDistribution, nil
	case "HD":
		return HybridDistribution, nil
	default:
		return 0, fmt.Errorf("hw: unknown policy %q (want NP, ED, or HD)", name)
	}
}

// VirtualWorker is an ordered set of GPUs acting as one DP worker; position i
// hosts pipeline stage i.
type VirtualWorker struct {
	Index int
	GPUs  []*GPU
}

// TypeString renders the VW's GPU mix, e.g. "VVQQ".
func (vw *VirtualWorker) TypeString() string { return typeString(vw.GPUs) }

// CrossNodeBoundaries counts adjacent stage pairs whose GPUs sit on
// different nodes (each such boundary communicates over InfiniBand).
func (vw *VirtualWorker) CrossNodeBoundaries() int {
	n := 0
	for i := 1; i < len(vw.GPUs); i++ {
		if vw.GPUs[i].Node != vw.GPUs[i-1].Node {
			n++
		}
	}
	return n
}

// Allocation is a full assignment of cluster GPUs to virtual workers.
type Allocation struct {
	Policy string
	VWs    []*VirtualWorker
}

// Allocate applies one of the Table 3 policies to a cluster. NP works for
// any cluster; ED requires every node to hold the same GPU count; HD
// requires four distinct cataloged GPU types in equal numbers with a
// uniform, even per-node count (see allocateHD for the memory-ranked
// pairing rule that generalizes the paper's VVQQ/RRGG allocation).
func Allocate(c *Cluster, p Policy) (*Allocation, error) {
	switch p {
	case NodePartition:
		return allocateNP(c)
	case EqualDistribution:
		return allocateED(c)
	case HybridDistribution:
		return allocateHD(c)
	default:
		return nil, fmt.Errorf("hw: unknown policy %v", p)
	}
}

func allocateNP(c *Cluster) (*Allocation, error) {
	a := &Allocation{Policy: "NP"}
	for i, n := range c.Nodes {
		vw := &VirtualWorker{Index: i, GPUs: append([]*GPU(nil), n.GPUs...)}
		a.VWs = append(a.VWs, vw)
	}
	return a, nil
}

func allocateED(c *Cluster) (*Allocation, error) {
	per := len(c.Nodes[0].GPUs)
	for _, n := range c.Nodes {
		if len(n.GPUs) != per {
			return nil, fmt.Errorf("hw: ED requires equal GPU counts per node; node %d has %d, node 0 has %d",
				n.Index, len(n.GPUs), per)
		}
	}
	a := &Allocation{Policy: "ED"}
	for i := 0; i < per; i++ {
		vw := &VirtualWorker{Index: i}
		for _, n := range c.Nodes {
			vw.GPUs = append(vw.GPUs, n.GPUs[i])
		}
		a.VWs = append(a.VWs, vw)
	}
	return a, nil
}

// allocateHD builds the hybrid allocation. On the paper cluster it yields
// exactly Table 3's VVQQ, VVQQ, RRGG, RRGG. Pairing rationale (Section 8.1):
// compute power V>R>G>Q and memory R>V>Q>G, so pairing the strongest compute
// with the most whimpy parts (and vice versa) balances aggregate capability
// across virtual workers.
//
// The rule generalizes to any cluster with four distinct GPU types in equal
// numbers and a uniform, even per-node GPU count: rank the types by memory
// capacity and pair the extremes — (1st,4th) and (2nd,3rd) — so every
// virtual worker mixes a memory-rich type with a memory-poor one. On the
// paper types (R 24 > V 12 > Q 8 > G 6 GiB) that yields exactly the paper's
// R+G and V+Q pairings. Virtual workers are emitted with the pair whose
// weaker member has more memory first (V+Q before R+G, matching Table 3's
// row order), each spec listing the higher-memory type first. "mini" yields
// VQ,VQ,RG,RG; "paper-x2" yields four VVQQ and four RRGG virtual workers.
func allocateHD(c *Cluster) (*Allocation, error) {
	per := len(c.Nodes[0].GPUs)
	for _, n := range c.Nodes {
		if len(n.GPUs) != per {
			return nil, fmt.Errorf("hw: HD requires equal GPU counts per node; node %d has %d, node 0 has %d",
				n.Index, len(n.GPUs), per)
		}
	}
	if per%2 != 0 {
		return nil, fmt.Errorf("hw: HD requires an even per-node GPU count, got %d", per)
	}
	counts := c.countByType()
	if len(counts) != 4 {
		return nil, fmt.Errorf("hw: HD requires exactly 4 distinct GPU types, got %d", len(counts))
	}
	var types []*GPUType
	typeCount := 0
	for _, t := range Catalog() {
		if n, ok := counts[t.Code]; ok {
			if typeCount == 0 {
				typeCount = n
			} else if n != typeCount {
				return nil, fmt.Errorf("hw: HD requires equal counts per GPU type; %c has %d, want %d",
					t.Code, n, typeCount)
			}
			types = append(types, t)
		}
	}
	if len(types) != 4 {
		return nil, fmt.Errorf("hw: HD requires the 4 cataloged GPU types, found %d in the cluster", len(types))
	}
	// Rank by memory capacity, largest first. The catalog iteration above
	// makes the pre-sort order deterministic, so equal-memory ties are
	// stable.
	sort.SliceStable(types, func(i, j int) bool {
		return types[i].MemoryBytes > types[j].MemoryBytes
	})
	pairs := [][2]*GPUType{{types[0], types[3]}, {types[1], types[2]}}
	// The pair whose weaker member has more memory leads (Table 3 lists the
	// V+Q virtual workers before R+G).
	sort.SliceStable(pairs, func(i, j int) bool {
		return pairs[i][1].MemoryBytes > pairs[j][1].MemoryBytes
	})
	half := per / 2
	var specs []string
	for _, pair := range pairs {
		spec := strings.Repeat(string(pair[0].Code), half) + strings.Repeat(string(pair[1].Code), half)
		for i := 0; i < typeCount/half; i++ {
			specs = append(specs, spec)
		}
	}
	a, err := AllocateByTypes(c, specs)
	if err != nil {
		return nil, err
	}
	a.Policy = "HD"
	return a, nil
}

// AllocateByTypes builds virtual workers from explicit GPU type-code strings,
// consuming devices from the cluster inventory. Within one spec, requests for
// the same type come from the same node when possible (so "VV" shares PCIe).
// It powers the Figure 3 single-VW configs and the Table 4 incremental sets.
func AllocateByTypes(c *Cluster, vwSpecs []string) (*Allocation, error) {
	used := make(map[int]bool) // GPU ID -> taken
	take := func(code byte) (*GPU, error) {
		for _, g := range c.gpus {
			if !used[g.ID] && g.Type.Code == code {
				used[g.ID] = true
				return g, nil
			}
		}
		return nil, fmt.Errorf("hw: cluster has no free GPU of type %q", string(code))
	}
	a := &Allocation{Policy: "custom"}
	for i, spec := range vwSpecs {
		if spec == "" {
			return nil, fmt.Errorf("hw: empty VW spec at index %d", i)
		}
		vw := &VirtualWorker{Index: i}
		for j := 0; j < len(spec); j++ {
			if _, err := typeByCode(spec[j]); err != nil {
				return nil, err
			}
			g, err := take(spec[j])
			if err != nil {
				return nil, fmt.Errorf("%v (allocating VW %d spec %q)", err, i, spec)
			}
			vw.GPUs = append(vw.GPUs, g)
		}
		a.VWs = append(a.VWs, vw)
	}
	return a, nil
}

// SingleVWConfigs lists the seven Figure 3 virtual-worker configurations.
func SingleVWConfigs() []string {
	return []string{"VVVV", "RRRR", "GGGG", "QQQQ", "VRGQ", "VVQQ", "RRGG"}
}

// Table4Set names one column of Table 4: a GPU budget and the VW specs
// HetPipe builds from it.
type Table4Set struct {
	// Name matches the paper's header, e.g. "8 GPUs 4[VR]".
	Name string
	// Specs is one type string per virtual worker.
	Specs []string
}

// Table4Sets returns the four incremental configurations of Table 4. The
// 4-GPU column uses a single virtual worker (VVVV); the others use four
// virtual workers of 2, 3, and 4 GPUs.
func Table4Sets() []Table4Set {
	return []Table4Set{
		{Name: "4 GPUs 4[V]", Specs: []string{"VVVV"}},
		{Name: "8 GPUs 4[VR]", Specs: []string{"VR", "VR", "VR", "VR"}},
		{Name: "12 GPUs 4[VRQ]", Specs: []string{"VRQ", "VRQ", "VRQ", "VRQ"}},
		{Name: "16 GPUs 4[VRQG]", Specs: []string{"VRQG", "VRQG", "VRQG", "VRQG"}},
	}
}
