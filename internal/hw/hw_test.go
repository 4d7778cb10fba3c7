package hw

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCatalogTable1(t *testing.T) {
	// Spot-check the Table 1 rows.
	cases := []struct {
		t     *GPUType
		cores int
		mhz   int
		memGB int64
		bw    float64
	}{
		{TitanV, 5120, 1455, 12, 653e9},
		{TitanRTX, 4608, 1770, 24, 672e9},
		{rtx2060, 1920, 1680, 6, 336e9},
		{QuadroP4000, 1792, 1480, 8, 243e9},
	}
	for _, c := range cases {
		if c.t.CUDACores != c.cores {
			t.Errorf("%s cores = %d, want %d", c.t.Name, c.t.CUDACores, c.cores)
		}
		if c.t.BoostMHz != c.mhz {
			t.Errorf("%s boost = %d, want %d", c.t.Name, c.t.BoostMHz, c.mhz)
		}
		if c.t.MemoryBytes != c.memGB<<30 {
			t.Errorf("%s memory = %d, want %d GiB", c.t.Name, c.t.MemoryBytes, c.memGB)
		}
		if c.t.MemBandwidth != c.bw {
			t.Errorf("%s bandwidth = %g, want %g", c.t.Name, c.t.MemBandwidth, c.bw)
		}
	}
}

func TestTypeByCode(t *testing.T) {
	for _, typ := range Catalog() {
		got, err := typeByCode(typ.Code, nil)
		if err != nil || got != typ {
			t.Errorf("typeByCode(%c) = %v, %v", typ.Code, got, err)
		}
	}
	if _, err := typeByCode('X', nil); err == nil {
		t.Error("typeByCode('X') should fail")
	}
	x := &GPUType{Name: "Synthetic X", Code: 'X'}
	if got, err := typeByCode('X', []*GPUType{x}); err != nil || got != x {
		t.Errorf("typeByCode('X', extra) = %v, %v; want the extra type", got, err)
	}
}

func TestNewClusterLayout(t *testing.T) {
	x := &GPUType{Name: "Synthetic X", Code: 'X', MemoryBytes: 16 << 30}
	c, err := NewCluster(" VV  XXX ", x)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 2 || len(c.Nodes[0].GPUs) != 2 || len(c.Nodes[1].GPUs) != 3 {
		t.Fatalf("layout VV XXX built nodes %v", c.Nodes)
	}
	if g := c.GPUs()[4]; g.Type != x || g.Node != 1 || g.Slot != 2 || g.ID != 4 {
		t.Errorf("last GPU is %+v, want the extra type's slot 2 on node 1", g)
	}
	// ED needs equal nodes; NP works anywhere; HD needs four types.
	if _, err := Allocate(c, EqualDistribution); err == nil {
		t.Error("ED on unequal nodes should fail")
	}
	if a, err := Allocate(c, NodePartition); err != nil || len(a.VWs) != 2 || a.VWs[1].TypeString() != "XXX" {
		t.Errorf("NP = %v, %v; want VV and XXX", a, err)
	}
	for _, bad := range []string{"", "   ", "VR QQ", "VV XX"} {
		if _, err := NewCluster(bad); err == nil {
			t.Errorf("layout %q accepted", bad)
		}
	}
	if _, err := Allocate(c, Policy(3)); err == nil {
		t.Error("an unknown policy should fail")
	}
}

func TestPaperCluster(t *testing.T) {
	c := Paper()
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(c.Nodes))
	}
	if len(c.GPUs()) != 16 {
		t.Fatalf("GPUs = %d, want 16", len(c.GPUs()))
	}
	counts := c.countByType()
	for _, code := range []byte{'V', 'R', 'G', 'Q'} {
		if counts[code] != 4 {
			t.Errorf("count[%c] = %d, want 4", code, counts[code])
		}
	}
	// IDs are dense and node-major.
	for i, g := range c.GPUs() {
		if g.ID != i {
			t.Errorf("GPU %d has ID %d", i, g.ID)
		}
		if g.Node != i/4 {
			t.Errorf("GPU %d on node %d, want %d", i, g.Node, i/4)
		}
	}
	// A node lists the cluster's own devices, and an append to one node's
	// list cannot overwrite the next node's.
	for _, n := range c.Nodes {
		for s, g := range n.GPUs {
			if g != c.GPUs()[4*n.Index+s] || g.Slot != s {
				t.Errorf("node %d slot %d is %s, not the cluster's GPU %d", n.Index, s, g.Name(), 4*n.Index+s)
			}
		}
		if cap(n.GPUs) != len(n.GPUs) {
			t.Errorf("node %d's GPU list has capacity %d beyond its %d GPUs", n.Index, cap(n.GPUs), len(n.GPUs))
		}
	}
}

func TestLinkBetween(t *testing.T) {
	c := Paper()
	g := c.GPUs()
	if k := c.LinkBetween(g[0], g[0]); k != LinkLocal {
		t.Errorf("self link = %v, want local", k)
	}
	if k := c.LinkBetween(g[0], g[1]); k != LinkPCIe {
		t.Errorf("intra-node link = %v, want pcie", k)
	}
	if k := c.LinkBetween(g[0], g[4]); k != LinkInfiniBand {
		t.Errorf("inter-node link = %v, want infiniband", k)
	}
}

func TestAllocateNP(t *testing.T) {
	a, err := Allocate(Paper(), NodePartition)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"VVVV", "RRRR", "GGGG", "QQQQ"}
	if len(a.VWs) != 4 {
		t.Fatalf("VWs = %d, want 4", len(a.VWs))
	}
	for i, vw := range a.VWs {
		if vw.TypeString() != want[i] {
			t.Errorf("NP VW%d = %s, want %s", i, vw.TypeString(), want[i])
		}
		if vw.CrossNodeBoundaries() != 0 {
			t.Errorf("NP VW%d crosses nodes", i)
		}
	}
}

func TestAllocateED(t *testing.T) {
	a, err := Allocate(Paper(), EqualDistribution)
	if err != nil {
		t.Fatal(err)
	}
	for i, vw := range a.VWs {
		if vw.TypeString() != "VRGQ" {
			t.Errorf("ED VW%d = %s, want VRGQ", i, vw.TypeString())
		}
		// Every stage boundary crosses a node under ED.
		if vw.CrossNodeBoundaries() != 3 {
			t.Errorf("ED VW%d cross-node boundaries = %d, want 3", i, vw.CrossNodeBoundaries())
		}
	}
}

func TestAllocateHD(t *testing.T) {
	a, err := Allocate(Paper(), HybridDistribution)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"VVQQ", "VVQQ", "RRGG", "RRGG"}
	for i, vw := range a.VWs {
		if vw.TypeString() != want[i] {
			t.Errorf("HD VW%d = %s, want %s", i, vw.TypeString(), want[i])
		}
		// Same-type pairs share a node: exactly one cross-node boundary.
		if vw.CrossNodeBoundaries() != 1 {
			t.Errorf("HD VW%d cross-node boundaries = %d, want 1", i, vw.CrossNodeBoundaries())
		}
	}
}

func TestClusterCatalog(t *testing.T) {
	wantGPUs := map[string]int{"paper": 16, "paper-x2": 32, "mini": 8, "whimpy": 16}
	names := ClusterNames()
	if len(names) != len(wantGPUs) {
		t.Fatalf("catalog has %d entries, want %d", len(names), len(wantGPUs))
	}
	for name, n := range wantGPUs {
		c, err := ClusterByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(c.GPUs()); got != n {
			t.Errorf("%s: %d GPUs, want %d", name, got, n)
		}
	}
	if _, err := ClusterByName("dgx"); err == nil {
		t.Error("unknown cluster accepted")
	}
	if spec := ClusterCatalog()[0]; spec.Name != "paper" || spec.Description == "" || spec.cluster != Paper() {
		t.Errorf("catalog should lead with a described paper entry, got %+v", spec.Name)
	}
}

// TestSharedClusters holds the catalog to its contract: one immutable
// cluster per name, the same pointer for every caller and goroutine, whose
// Table 3 allocations are the ones built with it, and from which
// AllocateByTypes hands out equal, independent allocations without changing
// it. Run it under -race: the goroutines read what nothing may write.
func TestSharedClusters(t *testing.T) {
	type view struct {
		cluster *Cluster
		allocs  [3]*Allocation
	}
	look := func(name string) (v view) {
		v.cluster, _ = ClusterByName(name)
		for _, p := range Policies() {
			v.allocs[p], _ = Allocate(v.cluster, p)
		}
		return v
	}
	names := ClusterNames()
	views := make([][]view, 8)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				views[g] = append(views[g], look(name))
				c, _ := ClusterByName(name)
				if _, err := AllocateByTypes(c, []string{"QQ", "GG"}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for i, name := range names {
		want := look(name)
		for g := range views {
			if views[g][i] != want {
				t.Errorf("%s: goroutine %d saw %+v, want %+v", name, g, views[g][i], want)
			}
		}
		for p, a := range want.allocs {
			if a != want.cluster.allocs[p].a {
				t.Errorf("%s %v: Allocate returned an allocation not built with the cluster", name, Policy(p))
			}
		}
		// The shared value equals a fresh build of its layout: nothing the
		// calls above did wrote to it.
		fresh := mustCluster(strings.Join(layout(want.cluster), " "))
		if !reflect.DeepEqual(want.cluster, fresh) {
			t.Errorf("%s: shared cluster differs from a fresh build of its layout", name)
		}
	}
	c := Paper()
	a, err := AllocateByTypes(c, []string{"VRGQ", "VVQQ"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AllocateByTypes(c, []string{"VRGQ", "VVQQ"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two AllocateByTypes calls differ: %+v and %+v", a, b)
	}
	if a == b || a.VWs[0] == b.VWs[0] || &a.VWs[0].GPUs[0] == &b.VWs[0].GPUs[0] {
		t.Error("two AllocateByTypes calls share an allocation, a worker or a GPU list")
	}
}

// layout renders a cluster in NewCluster's notation, one string per node.
func layout(c *Cluster) (nodes []string) {
	for _, n := range c.Nodes {
		nodes = append(nodes, typeString(n.GPUs))
	}
	return nodes
}

func TestAllocateHDGeneralizes(t *testing.T) {
	cases := []struct {
		cluster string
		want    []string
	}{
		{"paper", []string{"VVQQ", "VVQQ", "RRGG", "RRGG"}},
		{"mini", []string{"VQ", "VQ", "RG", "RG"}},
		{"paper-x2", []string{"VVQQ", "VVQQ", "VVQQ", "VVQQ", "RRGG", "RRGG", "RRGG", "RRGG"}},
	}
	for _, c := range cases {
		cl, err := ClusterByName(c.cluster)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Allocate(cl, HybridDistribution)
		if err != nil {
			t.Fatalf("%s: %v", c.cluster, err)
		}
		if len(a.VWs) != len(c.want) {
			t.Fatalf("%s: %d VWs, want %d", c.cluster, len(a.VWs), len(c.want))
		}
		for i, vw := range a.VWs {
			if vw.TypeString() != c.want[i] {
				t.Errorf("%s VW%d = %s, want %s", c.cluster, i, vw.TypeString(), c.want[i])
			}
		}
	}
	// HD is undefined without four distinct types.
	whimpy, _ := ClusterByName("whimpy")
	if _, err := Allocate(whimpy, HybridDistribution); err == nil {
		t.Error("HD on a two-type cluster should fail")
	}
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]Policy{
		"NP": NodePartition, "ed": EqualDistribution, "Hd": HybridDistribution,
	} {
		got, err := PolicyByName(name)
		if err != nil || got != want {
			t.Errorf("PolicyByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := PolicyByName("XX"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestAllocationsAreDisjoint(t *testing.T) {
	for _, p := range Policies() {
		a, err := Allocate(Paper(), p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		seen := make(map[int]bool)
		total := 0
		for _, vw := range a.VWs {
			for _, g := range vw.GPUs {
				if seen[g.ID] {
					t.Errorf("%v: GPU %d assigned twice", p, g.ID)
				}
				seen[g.ID] = true
				total++
			}
		}
		if total != 16 {
			t.Errorf("%v: assigned %d GPUs, want 16", p, total)
		}
	}
}

func TestAllocateByTypesExhaustion(t *testing.T) {
	c := Paper()
	// 5 V GPUs requested but only 4 exist.
	if _, err := AllocateByTypes(c, []string{"VVVVV"}); err == nil {
		t.Error("over-allocation should fail")
	}
	if _, err := AllocateByTypes(c, []string{"VX"}); err == nil {
		t.Error("unknown code should fail")
	}
	if _, err := AllocateByTypes(c, []string{""}); err == nil {
		t.Error("empty spec should fail")
	}
}

func TestSingleVWConfigs(t *testing.T) {
	c := Paper()
	for _, cfg := range SingleVWConfigs() {
		a, err := AllocateByTypes(c, []string{cfg})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if got := a.VWs[0].TypeString(); got != cfg {
			t.Errorf("allocated %s, want %s", got, cfg)
		}
	}
}

func TestTable4Sets(t *testing.T) {
	sets := Table4Sets()
	if len(sets) != 4 {
		t.Fatalf("sets = %d, want 4", len(sets))
	}
	for _, s := range sets {
		a, err := AllocateByTypes(Paper(), s.Specs)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		for i, vw := range a.VWs {
			if vw.TypeString() != s.Specs[i] {
				t.Errorf("%s VW%d = %s, want %s", s.Name, i, vw.TypeString(), s.Specs[i])
			}
		}
	}
	// The 16-GPU set uses the whole cluster.
	last := sets[len(sets)-1]
	if n := len(strings.Join(last.Specs, "")); n != 16 || !strings.Contains(last.Name, "16") {
		t.Errorf("last set should be the 16-GPU column: %+v", last)
	}
}

func TestSameTypePairsShareNode(t *testing.T) {
	// AllocateByTypes should satisfy "VV" from one node so the pair uses PCIe.
	a, err := AllocateByTypes(Paper(), []string{"VVQQ"})
	if err != nil {
		t.Fatal(err)
	}
	g := a.VWs[0].GPUs
	if g[0].Node != g[1].Node {
		t.Error("VV pair split across nodes")
	}
	if g[2].Node != g[3].Node {
		t.Error("QQ pair split across nodes")
	}
}
