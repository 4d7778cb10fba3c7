package core

import (
	"fmt"
	"slices"

	"hetpipe/internal/hw"
	"hetpipe/internal/profile"
)

// HorovodResult summarizes the all-reduce BSP baseline.
type HorovodResult struct {
	// Workers lists the GPUs that can hold the whole model; GPUs whose
	// memory is too small are excluded (the paper runs ResNet-152 Horovod
	// on only 12 of the 16 GPUs for this reason).
	Workers []*hw.GPU
	// Excluded lists the GPUs that cannot participate.
	Excluded []*hw.GPU
	// Throughput is the aggregate samples/sec: every iteration processes
	// one minibatch per worker and takes (slowest compute + all-reduce).
	Throughput float64
	// Periods is each included worker's standalone per-minibatch compute
	// time, in Workers order — the inputs the numeric BSP trainer needs.
	Periods []float64
	// IterationTime decomposes into the straggler-paced compute time (the
	// largest period) and the ring all-reduce time.
	ComputeTime, AllReduceTime float64
	// CrossNodeBytesPerWorker is the one-way all-reduce wire volume per
	// iteration per worker: (N-1)/N * parameter bytes (the paper's 515 MB
	// figure for VGG-19 on 16 GPUs).
	CrossNodeBytesPerWorker int64
}

// Horovod evaluates the DP baseline on a set of GPUs (all cluster GPUs when
// gpus is nil): BSP with ring all-reduce over InfiniBand, each worker
// processing the whole model. The slowest included GPU paces every
// iteration — the straggler effect WSP is designed to avoid.
func (s *System) Horovod(gpus []*hw.GPU) (*HorovodResult, error) {
	if gpus == nil {
		gpus = s.Cluster.GPUs()
	}
	res := &HorovodResult{}
	footprint := s.Model.TrainingFootprintBytes(s.Batch)
	for _, g := range gpus {
		if footprint > g.Type.MemoryBytes {
			res.Excluded = append(res.Excluded, g)
			continue
		}
		res.Workers = append(res.Workers, g)
	}
	if len(res.Workers) == 0 {
		return nil, fmt.Errorf("core: no GPU can hold %s (footprint %d bytes)", s.Model.Name, footprint)
	}
	for _, g := range res.Workers {
		t, err := s.Perf.WholeModelTime(s.Model, g.Type, s.Batch)
		if err != nil {
			return nil, err
		}
		res.Periods = append(res.Periods, t)
	}
	n := len(res.Workers)
	res.ComputeTime = slices.Max(res.Periods)
	res.AllReduceTime = ringAllReduceTime(s.Model.ParamBytes(), n, s.Perf.IB)
	res.Throughput = float64(n*s.Batch) / (res.ComputeTime + res.AllReduceTime)
	res.CrossNodeBytesPerWorker = busBandwidthVolume(s.Model.ParamBytes(), n) / 2
	return res, nil
}

// ringAllReduceTime predicts one bandwidth-optimal ring all-reduce (Patarasuk
// & Yuan) of the given payload over n workers whose slowest interconnect is
// described by link: 2(N-1) steps, each carrying bytes/N plus the per-step
// latency. With one worker there is nothing to do.
func ringAllReduceTime(bytes int64, n int, link profile.LinkModel) float64 {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	perStep := link.Latency + float64(bytes)/float64(n)/link.EffectiveBPS()
	return float64(2*(n-1)) * perStep
}

// busBandwidthVolume reports the per-worker bytes actually moved on the wire
// for an all-reduce of the payload: 2(N-1)/N * bytes — the figure the paper
// quotes when comparing Horovod's 515 MB against ED-local's 103 MB for
// VGG-19.
func busBandwidthVolume(bytes int64, n int) int64 {
	if n <= 1 {
		return 0
	}
	return 2 * int64(n-1) * bytes / int64(n)
}
