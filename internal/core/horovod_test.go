package core

import (
	"testing"

	"hetpipe/internal/profile"
)

func TestCostModel(t *testing.T) {
	link := profile.LinkModel{PeakBPS: 10e9, Efficiency: 0.5, Latency: 1e-4}
	if got := ringAllReduceTime(1<<20, 1, link); got != 0 {
		t.Errorf("single worker time = %v, want 0", got)
	}
	t4 := ringAllReduceTime(100<<20, 4, link)
	t8 := ringAllReduceTime(100<<20, 8, link)
	if t4 <= 0 {
		t.Fatal("cost must be positive")
	}
	// Bandwidth term is nearly n-independent (2(n-1)/n approaches 2);
	// latency term grows with n. For small latency the times are close.
	if t8 < t4 {
		t.Errorf("8-worker ring (%v) should not beat 4-worker (%v) on latency-bound terms", t8, t4)
	}
}

func TestBusBandwidthVolume(t *testing.T) {
	// The paper's Horovod VGG-19 figure: ~515 MB moved per worker for a
	// 548 MB parameter set on 16 workers: 2*15/16*548 = 1027 MB total,
	// 515 MB each direction.
	param := int64(548e6)
	vol := busBandwidthVolume(param, 16)
	if vol/2 < 500e6 || vol/2 > 530e6 {
		t.Errorf("one-way volume = %d MB, want ~515 MB", vol/2/1e6)
	}
	if busBandwidthVolume(param, 1) != 0 {
		t.Error("single worker moves nothing")
	}
}
