package partition

import (
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
)

// BenchmarkPartitionResNet152 measures the DP partitioner on the deepest
// paper model (58 schedulable layers onto 4 heterogeneous GPUs). Consecutive
// calls alternate between a VRGQ worker and its mirror image QGRV, so every
// call's constants differ from the last solve's and none can carry: one op is
// one full dynamic program.
func BenchmarkPartitionResNet152(b *testing.B) {
	c := hw.Paper()
	alloc, err := hw.AllocateByTypes(c, []string{"VRGQ", "QGRV"})
	if err != nil {
		b.Fatal(err)
	}
	m := model.ResNet152()
	pt := New(profile.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pt.Partition(c, m, alloc.VWs[i%2], 4, 32); err != nil {
			b.Fatal(err)
		}
	}
	if st := pt.Stats(); st.Carried != 0 {
		b.Fatalf("%d of %d calls carried: the benchmark no longer measures the DP", st.Carried, b.N)
	}
}

// BenchmarkPartitionNmScan is the traffic core's Nm search generates: one
// worker planned at Nm = 1..8 in ascending order, the first plan of each scan
// solved from scratch (the previous scan ended at Nm=8, whose stashes are
// larger), the rest carried wherever the cuts still fit and re-solved in
// place where they do not (Nm 3-6). One op is the eight plans; they are all
// it may allocate, three allocations each.
func BenchmarkPartitionNmScan(b *testing.B) {
	c := hw.Paper()
	alloc, err := hw.AllocateByTypes(c, []string{"VRGQ"})
	if err != nil {
		b.Fatal(err)
	}
	m := model.ResNet152()
	pt := New(profile.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for nm := 1; nm <= 8; nm++ {
			if _, err := pt.Partition(c, m, alloc.VWs[0], nm, 32); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMaxNm measures the binary search for the memory-feasibility bound:
// probes at Nm 1, 5, 7 and 8 on a GGGG worker, all feasible: Nm=1 solved
// from scratch, 5 and 7 re-solved in place, 8 carried.
func BenchmarkMaxNm(b *testing.B) {
	c := hw.Paper()
	alloc, err := hw.AllocateByTypes(c, []string{"GGGG"})
	if err != nil {
		b.Fatal(err)
	}
	m := model.ResNet152()
	pt := New(profile.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nm := pt.MaxNm(c, m, alloc.VWs[0], 32, 8); nm < 1 {
			b.Fatal("infeasible")
		}
	}
}
