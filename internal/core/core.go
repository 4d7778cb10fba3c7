// Package core is HetPipe itself: it assembles the substrates into the
// system of Figure 2. Given a cluster, a DNN model, and a resource
// allocation policy, it builds virtual workers, partitions the model onto
// each (Section 7), chooses the number of concurrent minibatches Nm
// (Section 4), and simulates data parallelism across the virtual workers
// under the WSP synchronization model (Section 5) against parameter servers
// with either the default round-robin or the ED-local shard placement.
// It also provides the Horovod (all-reduce BSP) baseline the paper compares
// against.
//
// Planning a deployment makes each distinct piece of work once. Deploy and
// SoloVW each open one planning context (planning.go): one partitioner, one
// warm engine and Runner for the solo simulations, and a memo keyed by
// (virtual-worker class, Nm), where a class is the sequence of GPU types and
// link kinds around the worker — all a plan and its solo run depend on.
// Workers of one class share one partition and one simulation per Nm, and the
// per-worker pass after the Nm search is all memo hits. The memo keeps each
// partition's cuts, not a plan: only the chosen Nm's plans are priced, once
// per worker, each bound to its own GPUs and in storage of its own. The only
// state that outlives a context is the System's immutable cost tables and
// the engine, Runner and scratch plan, which the next context on the System
// reuses.
//
// The Nm search does only the planning its answer needs. It finds each
// class's feasible range by planning Nm = 1, 2, ... up to the first that does
// not fit — every plan in the range is needed anyway, and in ascending order
// the partitioner carries each plan's cuts to the next Nm instead of solving
// again while they fit. It then evaluates Nm from the top of the range down
// and skips the solo simulations of any Nm whose closed-form round-trip
// bound (pipeline.ThroughputBound, summed over the workers) is strictly
// below the best total already simulated: the bound is tight where few
// minibatches are in flight, so the top of the range rules out most of the
// bottom. And each solo run stops simulating once its state repeats, jumping
// whole periods instead (pipeline.Runner). All three are exact — the same
// plans and the same Nm as the bisecting, simulate-everything search the
// tests keep as referenceDeploy — and Deployment.Planning reports how much of
// each a Deploy did.
//
// What a co-simulation costs. Simulate steps one pipeline per lock-step
// group, not per virtual worker (multisim.go). A group is a maximal run of
// consecutive workers with equal executor inputs (pipeline.SameInputs: stage
// count, interleave degree, Nm, batch, the time table) and equal push and
// pull times, none of them named by a slow, crash or link clause of the fault
// plan. Such workers agree for the whole run, bit for bit — every input of
// the injection gate is either the global clock or equal among them — so the
// group's handlers replay each effect on the shared state (coordinator,
// counters, waiting-time sums, observer events) once per member in worker
// order, and MultiResult and the observer stream are exactly the per-worker
// simulation's. Only neighbours merge: replaying A,B,A as {A,A},{B} would
// reorder the float additions into Waiting and the observer stream, and every
// allocation policy emits equal workers side by side anyway. PS stalls are
// cluster-wide and split nothing; a clause naming a worker splits that worker
// off into a group of one, which is the per-worker simulation. The paper
// cluster's ED allocation (four VRGQ workers) therefore fires a quarter of
// the events four pipelines would, HD (two VVQQ, two RRGG) half, NP all of
// them. A CoSim keeps the groups' pipelines, devices and hooks and the
// coordinator from run to run, so a warm run allocates only its MultiResult;
// BENCH_cosim.json gates the three.
package core

import (
	"fmt"
	"sync"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/partition"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
	"hetpipe/internal/trace"
	"hetpipe/internal/wsp"
)

// System bundles the fixed ingredients of an experiment.
type System struct {
	Cluster *hw.Cluster
	Model   *model.Model
	Perf    *profile.Perf
	Batch   int
	// Schedule is the pipeline execution discipline every virtual worker
	// runs; nil means sched.Default() (hetpipe-fifo, the paper's own). It
	// shapes both the partitioner's memory model and the simulated task
	// graph.
	Schedule sched.Schedule
	// Interleave is the partitioner's interleave degree V: each stage is cut
	// into V chunks forming len(stages)*V virtual stages. 0 or 1 keeps the
	// classic contiguous placement; V > 1 requires a schedule with
	// SupportsInterleave (currently "interleaved").
	Interleave int

	// tab is the partitioner's cost tables for (Perf, Model, Batch), built
	// by the first planning context and shared by all later ones — they are
	// immutable, and concurrent Deploys on one System (a sweep's workers)
	// would otherwise each rebuild them. tabMu guards the pointer.
	tabMu sync.Mutex
	tab   *profile.Tables
	// kits is the solo-run scratch finished planning contexts handed back,
	// for the next one to reuse; kitMu guards it.
	kitMu sync.Mutex
	kits  []*soloKit
}

// NewSystemSched validates and bundles the ingredients under pipeline
// schedule s; nil means the default hetpipe-fifo.
func NewSystemSched(c *hw.Cluster, m *model.Model, perf *profile.Perf, batch int, s sched.Schedule) (*System, error) {
	if c == nil || m == nil || perf == nil {
		return nil, fmt.Errorf("core: nil system ingredient")
	}
	if batch < 1 {
		return nil, fmt.Errorf("core: batch must be >= 1, got %d", batch)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &System{Cluster: c, Model: m, Perf: perf, Batch: batch, Schedule: s}, nil
}

// schedule resolves the system's schedule, defaulting to hetpipe-fifo.
func (s *System) schedule() sched.Schedule { return sched.Or(s.Schedule) }

// PlacementKind selects the parameter-shard placement policy (Section 8.1).
type PlacementKind int

const (
	// PlacementDefault spreads layers round-robin over parameter servers on
	// all nodes (the TensorFlow default): most synchronization traffic
	// crosses InfiniBand.
	PlacementDefault PlacementKind = iota
	// PlacementLocal co-locates each stage's parameters with the node that
	// hosts that stage in every virtual worker. Only meaningful under ED,
	// where stage s lives on node s for every VW; synchronization then
	// stays on PCIe.
	PlacementLocal
)

func (p PlacementKind) String() string {
	if p == PlacementLocal {
		return "local"
	}
	return "default"
}

// VWPlan is one virtual worker prepared for execution.
type VWPlan struct {
	VW   *hw.VirtualWorker
	Plan *partition.Plan
	// Throughput is the standalone steady-state rate (samples/sec) at the
	// deployment's Nm, from a solo pipeline simulation.
	Throughput float64
}

// Deployment is a ready-to-simulate HetPipe configuration.
type Deployment struct {
	Sys       *System
	VWs       []*VWPlan
	Nm        int
	D         int
	Placement PlacementKind
	// PushTime[w] and PullTime[w] are per-wave parameter synchronization
	// transfer times for virtual worker w.
	PushTime, PullTime []float64
	// Planning counts what resolving the deployment cost.
	Planning Planning
}

// SGlobal returns the deployment's global staleness bound: with wave size Nm
// and clock distance bound D, a minibatch may miss the updates of at most
// (D+1)*Nm + Nm - 2 other minibatches (Section 5.2). wsp.Params owns the
// formula.
func (d *Deployment) SGlobal() int { return wsp.Params{SLocal: d.SLocal(), D: d.D}.SGlobal() }

// ScheduleName reports the pipeline schedule the deployment's virtual
// workers run, e.g. "hetpipe-fifo".
func (d *Deployment) ScheduleName() string { return sched.Or(d.Sys.Schedule).Name() }

// SLocal returns the deployment's local staleness bound, Nm - 1: within a
// virtual worker, minibatch p+1 starts from weights missing at most the Nm-1
// in-flight predecessors' updates (Section 4).
func (d *Deployment) SLocal() int { return d.Nm - 1 }

// SoloVW partitions the model onto one virtual worker at the given Nm and
// simulates its pipeline alone (the Figure 3 experiment) on the planning
// context's Runner, as Deploy's Nm search does. minibatches and warmup control
// the measurement window.
func (s *System) SoloVW(vw *hw.VirtualWorker, nm, minibatches, warmup int) (*VWPlan, pipeline.Summary, error) {
	pc := s.newPlanning([]*hw.VirtualWorker{vw}, nm, 1)
	defer pc.release()
	plan := new(partition.Plan) // the caller's to keep
	if _, err := pc.own(plan, vw, nm); err != nil {
		return nil, pipeline.Summary{}, err
	}
	sum, err := pc.kit.run.Run(pc.kit.eng, pipeline.Config{
		Plan: plan, Schedule: s.Schedule,
		Minibatches: minibatches, Warmup: warmup,
	})
	if err != nil {
		return nil, pipeline.Summary{}, err
	}
	return &VWPlan{VW: vw, Plan: plan, Throughput: sum.Throughput}, sum, nil
}

// SoloTrace simulates virtual worker vw's pipeline alone under the
// deployment's plan and schedule over minibatches minibatches (<= 0 means
// 4*Nm) and returns the recorded execution trace: every task of the run, the
// Figure 1 view.
func (d *Deployment) SoloTrace(vw, minibatches int) (*trace.Trace, error) {
	if vw < 0 || vw >= len(d.VWs) {
		return nil, fmt.Errorf("hetpipe: virtual worker %d out of range [0,%d)", vw, len(d.VWs))
	}
	if minibatches <= 0 {
		minibatches = 4 * d.Nm
	}
	plan := d.VWs[vw].Plan
	tr := trace.New(len(plan.Stages))
	if _, err := pipeline.Run(pipeline.Config{
		Plan: plan, Schedule: d.Sys.Schedule,
		Minibatches: minibatches, Trace: tr,
	}); err != nil {
		return nil, err
	}
	return tr, nil
}

func measureMB(nm int) int { return 40 + 10*nm }
func warmupMB(nm int) int  { return 10 + 2*nm }

// autoNmCap is the largest Nm Deploy's own search considers.
const autoNmCap = 8

// Deploy builds a HetPipe deployment over the allocation: one plan per
// virtual worker at a common Nm (chosen automatically when nm == 0), with
// parameter synchronization costs derived from the placement policy.
func (s *System) Deploy(alloc *hw.Allocation, nm, d int, placement PlacementKind) (*Deployment, error) {
	if d < 0 {
		return nil, fmt.Errorf("core: D must be >= 0")
	}
	if nm < 0 {
		return nil, fmt.Errorf("core: Nm must be >= 0 (0 = auto), got %d", nm)
	}
	if len(alloc.VWs) == 0 {
		return nil, fmt.Errorf("core: allocation has no virtual workers")
	}
	if placement == PlacementLocal {
		// Local placement requires every VW to map stage s to the same
		// node, which only ED guarantees.
		k := len(alloc.VWs[0].GPUs)
		for _, vw := range alloc.VWs {
			if len(vw.GPUs) != k {
				return nil, fmt.Errorf("core: local placement requires equal VW sizes")
			}
		}
		for st := 0; st < k; st++ {
			node := alloc.VWs[0].GPUs[st].Node
			for _, vw := range alloc.VWs[1:] {
				if vw.GPUs[st].Node != node {
					return nil, fmt.Errorf("core: local placement requires ED-style stage-to-node alignment")
				}
			}
		}
	}
	// One planning context serves the Nm search and the per-worker pass, so
	// the pass below finds every plan and solo run the search already made.
	// Its memo covers the Nm the search may visit, or the one Nm given.
	lo, width := nm, 1
	if nm == 0 {
		lo, width = 1, autoNmCap
	}
	pc := s.newPlanning(alloc.VWs, lo, width)
	defer pc.release()
	if nm == 0 {
		chosen, err := pc.chooseNm(alloc, autoNmCap)
		if err != nil {
			return nil, err
		}
		nm = chosen
	}
	dep := &Deployment{Sys: s, Nm: nm, D: d, Placement: placement}
	dep.VWs = plans(alloc, max(s.Interleave, 1))
	for _, vp := range dep.VWs {
		if err := pc.solo(vp, nm); err != nil {
			return nil, fmt.Errorf("core: VW %s: %w", vp.VW.TypeString(), err)
		}
	}
	n := len(alloc.VWs)
	times := make([]float64, 2*n)
	dep.PushTime, dep.PullTime = times[:n:n], times[n:]
	var hot int64
	if placement == PlacementDefault {
		hot = s.hotServerBytes()
	}
	for w, vp := range dep.VWs {
		dep.PushTime[w], dep.PullTime[w] = s.syncTimes(vp, placement, n, hot)
	}
	dep.Planning = pc.stats()
	return dep, nil
}

// plans returns one VWPlan per worker of alloc, each holding an empty plan
// with storage for the worker's stages of v chunks each, for solo to price
// into. The storage is carved out of one slab per kind; no two plans' windows
// overlap, and each is capped, so an append to one never reaches another.
func plans(alloc *hw.Allocation, v int) []*VWPlan {
	n, k := len(alloc.VWs), 0
	for _, vw := range alloc.VWs {
		k += len(vw.GPUs)
	}
	out := make([]*VWPlan, n)
	vps, ps := make([]VWPlan, n), make([]partition.Plan, n)
	stages, chunks := make([]partition.Stage, k), make([]partition.Chunk, k*v)
	for w, vw := range alloc.VWs {
		k := len(vw.GPUs)
		p := &ps[w]
		p.Stages, stages = stages[:k:k], stages[k:]
		for s := range p.Stages {
			p.Stages[s].Chunks, chunks = chunks[:v:v], chunks[v:]
		}
		vps[w] = VWPlan{VW: vw, Plan: p}
		out[w] = &vps[w]
	}
	return out
}

// syncTimes estimates the per-wave push and pull transfer times for one
// virtual worker under a placement policy.
//
// Default placement spreads layers round-robin over the per-node parameter
// servers — balancing layer counts, not bytes. The server that draws the
// heaviest layers (VGG-19's 411 MB fc6, say) becomes a hot spot whose NIC
// serves every virtual worker's push and pull over InfiniBand; the per-VW
// sync time is therefore the hot server's transfer time multiplied by the
// VW count. This hot-spot contention is what drops NP/ED/HD below Horovod
// for VGG-19 in Figure 4 while leaving ResNet-152 (whose shards are small
// and even) near Horovod.
//
// Local placement co-locates each stage's parameters with the stage's node:
// synchronization rides PCIe, per stage in parallel, with no cross-node NIC
// to contend on.
//
// hot is hotServerBytes, which depends on the System alone: Deploy finds it
// once for all its workers.
func (s *System) syncTimes(vp *VWPlan, placement PlacementKind, nVWs int, hot int64) (push, pull float64) {
	if placement == PlacementLocal {
		var max float64
		for i := range vp.Plan.Stages {
			st := &vp.Plan.Stages[i]
			var bytes int64
			for ci := range st.Chunks {
				ch := &st.Chunks[ci]
				for li := ch.Lo; li < ch.Hi; li++ {
					bytes += s.Model.Layers[li].WeightBytes()
				}
			}
			t := s.Perf.TransferTime(bytes, hw.LinkPCIe) + float64(bytes)/s.Perf.PSProcBPS
			if t > max {
				max = t
			}
		}
		return max, max
	}
	// Half the virtual workers' transfers collide on the hot server on
	// average (wave boundaries are correlated but not perfectly aligned).
	t := (s.Perf.TransferTime(hot, hw.LinkInfiniBand) + float64(hot)/s.Perf.PSProcBPS) * float64(nVWs) / 2
	if nVWs == 1 {
		t = s.Perf.TransferTime(hot, hw.LinkInfiniBand) + float64(hot)/s.Perf.PSProcBPS
	}
	return t, t
}

// hotServerBytes is the byte load of the busiest parameter server when the
// layers go round-robin over the node-resident servers, exactly as
// ps.RoundRobin places them: what default placement's syncTimes charges.
func (s *System) hotServerBytes() int64 {
	h := len(s.Cluster.Nodes)
	perServer := make([]int64, h)
	for li := range s.Model.Layers {
		perServer[li%h] += s.Model.Layers[li].WeightBytes()
	}
	var hot int64
	for _, b := range perServer {
		if b > hot {
			hot = b
		}
	}
	return hot
}

// CrossNodeBytesPerMinibatch accounts the traffic crossing node boundaries
// per minibatch for a deployment: pipeline activations/gradients over
// InfiniBand boundaries plus the parameter synchronization share (per wave,
// amortized over the wave's Nm minibatches). This regenerates the Section
// 8.3 traffic comparison (VGG-19: 103 MB ED-local vs 515 MB Horovod).
func (d *Deployment) CrossNodeBytesPerMinibatch() int64 {
	var act int64
	for _, vp := range d.VWs {
		// Walk the virtual-stage boundaries: for contiguous plans these are
		// the k-1 adjacent stage pairs; interleaved plans add the wrap
		// boundaries from the last GPU back to the first between chunks.
		k := len(vp.Plan.Stages)
		for j := 0; j+1 < vp.Plan.VirtualStages(); j++ {
			if d.Sys.Cluster.LinkBetween(vp.Plan.Stages[j%k].GPU, vp.Plan.Stages[(j+1)%k].GPU) == hw.LinkInfiniBand {
				// Activations forward + gradients backward.
				act += 2 * d.Sys.Model.BoundaryBytes(vp.Plan.ChunkAt(j).Hi-1, d.Sys.Batch)
			}
		}
	}
	act /= int64(len(d.VWs)) // per virtual worker
	var sync int64
	if d.Placement == PlacementDefault {
		h := len(d.Sys.Cluster.Nodes)
		perWave := 2 * d.Sys.Model.ParamBytes() * int64(h-1) / int64(h) // push + pull
		sync = perWave / int64(d.Nm)
	}
	return act + sync
}
