package hw

import (
	"strings"
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
		got, err := typeByCode(typ.Code)
		if err != nil || got != typ {
			t.Errorf("typeByCode(%c) = %v, %v", typ.Code, got, err)
		}
	}
	if _, err := typeByCode('X'); err == nil {
		t.Error("typeByCode('X') should fail")
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
		// Fresh inventory per call: allocations on one instance must not
		// consume another's GPUs.
		c2, _ := ClusterByName(name)
		if c == c2 || c.GPUs()[0] == c2.GPUs()[0] {
			t.Errorf("%s: ClusterByName returned a shared instance", name)
		}
	}
	if _, err := ClusterByName("dgx"); err == nil {
		t.Error("unknown cluster accepted")
	}
	if spec := ClusterCatalog()[0]; spec.Name != "paper" || spec.Description == "" {
		t.Errorf("catalog should lead with a described paper entry, got %+v", spec.Name)
	}
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
		// Fresh cluster per config: AllocateByTypes consumes inventory.
		c = Paper()
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
