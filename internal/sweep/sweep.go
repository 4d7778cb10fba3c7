// Package sweep is the parallel configuration-exploration engine: it expands
// a scenario grid — model zoo x cluster catalog x allocation policy x sync
// mode x pipeline schedule x fault plan x serving traffic x staleness bound
// D x concurrent-minibatch count Nm — into concrete simulation runs and
// executes them on a bounded worker pool, one warm deterministic
// co-simulation (core.CoSim) per goroutine. Faulted scenarios report their
// throughput degradation against the fault-free twin of the same
// configuration.
//
// HetPipe's contribution is itself a search over heterogeneous
// configurations (which allocation policy, which D, which Nm for a given
// model and cluster), and the paper's evaluation walks exactly such grids by
// hand. This package makes that search a first-class, parallel operation:
// every cell names its deployment with the core.Spec all entry points use,
// and cells whose specs agree but for D share one resolved deployment and its
// plan summaries — partitioning and the auto-Nm sweep run once per family,
// not once per D value (cells that also agree but for Nm and placement share
// the profiled System and the allocation), and each fault spec is parsed
// once. A scenario's WSP simulation re-initialises its worker's co-simulation
// — pipelines, devices, coordinator — rather than building one, so a cell
// allocates only its row; and since a warm run is bit-identical to a cold
// one, a grid run with workers=8 produces byte-identical results to the same
// grid run serially — only faster.
//
// Typical use:
//
//	set, err := sweep.Run(ctx, sweep.DefaultGrid(), sweep.Options{Workers: 8})
//	sweep.WriteJSON(os.Stdout, set)
//
// cmd/hetsweep wraps this package in a CLI.
package sweep

import (
	"fmt"

	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/sched"
	"hetpipe/internal/serve"
)

// Sync-mode axis values.
const (
	// SyncWSP runs HetPipe proper: pipelined virtual workers coupled through
	// the Wave Synchronous Parallel protocol (Section 5).
	SyncWSP = "wsp"
	// SyncHorovod runs the all-reduce BSP baseline the paper compares
	// against. Policy, placement, D, and Nm do not apply; the grid collapses
	// those axes to a single scenario per model and cluster.
	SyncHorovod = "horovod"
)

// Placement axis values.
const (
	// PlacementDefault spreads parameter shards round-robin over all nodes.
	PlacementDefault = "default"
	// PlacementLocal co-locates each stage's shard with the stage's node
	// (the paper's ED-local; requires ED-style stage/node alignment).
	PlacementLocal = "local"
)

// Grid declares one axis list per configuration dimension. Expand takes the
// cross product. Empty optional axes fall back to single-element defaults
// (see Expand); Models, Clusters, and Policies must be non-empty.
type Grid struct {
	// Models lists model-zoo keys (model.Names), e.g. "vgg19".
	Models []string `json:"models"`
	// Clusters lists cluster-catalog keys (hw.ClusterNames), e.g. "paper".
	Clusters []string `json:"clusters"`
	// Policies lists allocation policies: "NP", "ED", "HD".
	Policies []string `json:"policies"`
	// SyncModes lists synchronization modes: SyncWSP and/or SyncHorovod.
	// Empty means [SyncWSP].
	SyncModes []string `json:"syncModes,omitempty"`
	// Placements lists parameter placements: PlacementDefault and/or
	// PlacementLocal. Empty means [PlacementDefault].
	Placements []string `json:"placements,omitempty"`
	// Schedules lists pipeline schedules (sched.Names: "hetpipe-fifo",
	// "gpipe", "1f1b", "hetpipe-overlap"). Empty means the default
	// schedule only. Horovod scenarios collapse this axis like the other
	// WSP-only ones.
	Schedules []string `json:"schedules,omitempty"`
	// Interleaves lists interleave degrees V for the partitioner's chunked
	// placement. Empty means [1] — the classic contiguous stages. Schedules
	// that cannot run V > 1 (every schedule but "interleaved") collapse this
	// axis to a single V=1 scenario, like Horovod collapses the WSP-only
	// axes.
	Interleaves []int `json:"interleaves,omitempty"`
	// Faults lists fault-plan specs in the internal/fault grammar (e.g.
	// "slow:w0:x2" or "rand:0.5:seed7"); "" is the fault-free baseline.
	// Empty means [""] — no fault axis. Every non-baseline scenario's CSV
	// row reports its throughput degradation against the fault-free twin of
	// the same configuration, so include "" in the axis when sweeping
	// faults. Horovod scenarios collapse this axis like the other WSP-only
	// ones.
	Faults []string `json:"faults,omitempty"`
	// Traffics lists serving traffic specs in the internal/serve grammar
	// (e.g. "poisson:r120:n2000" or "closed:u64:t0.05:n2000"); "" is the
	// training workload. Empty means [""] — no serving axis. A non-empty
	// spec turns the scenario into an inference-serving run: the same
	// resolved deployment is driven by the request generator instead of the
	// WSP training simulation, Result.Throughput carries served
	// requests/sec, and the latency percentiles fill in. Serving ignores
	// the WSP clock bound and the parameter placement, so serving scenarios
	// collapse the D and placement axes to a single D=0, PlacementDefault
	// cell the way Horovod collapses the WSP-only axes. Mixing
	// "" and serving specs in one grid ranks samples/sec against
	// requests/sec within a model/cluster pair — keep grids single-workload
	// when the summary ranking matters.
	Traffics []string `json:"traffics,omitempty"`
	// DValues lists WSP clock-distance bounds (>= 0). Empty means [0].
	DValues []int `json:"dValues,omitempty"`
	// NmValues lists concurrent-minibatch counts; 0 lets the deployment pick
	// the throughput-maximizing Nm. Empty means [0].
	NmValues []int `json:"nmValues,omitempty"`
	// Batch is the per-minibatch sample count; 0 means 32.
	Batch int `json:"batch,omitempty"`
	// MinibatchesPerVW sizes each simulation; 0 picks a D-aware default of
	// at least 24 waves per virtual worker.
	MinibatchesPerVW int `json:"minibatchesPerVW,omitempty"`
}

// DefaultGrid is the out-of-the-box exploration: both paper models, the
// paper cluster and its doubled variant, all three allocation policies, WSP
// at D=0 and D=4 with automatic Nm — 24 scenarios.
func DefaultGrid() Grid {
	return Grid{
		Models:   []string{"vgg19", "resnet152"},
		Clusters: []string{"paper", "paper-x2"},
		Policies: []string{"NP", "ED", "HD"},
		DValues:  []int{0, 4},
	}
}

// Scenario is one fully-specified simulation run: a single point of the
// grid's cross product.
type Scenario struct {
	// Index is the scenario's position in expansion order (dense from 0).
	Index int `json:"index"`
	// Model is the model-zoo key.
	Model string `json:"model"`
	// Cluster is the cluster-catalog key.
	Cluster string `json:"cluster"`
	// SyncMode is SyncWSP or SyncHorovod.
	SyncMode string `json:"sync"`
	// Policy is the allocation policy; empty for Horovod scenarios.
	Policy string `json:"policy,omitempty"`
	// Placement is the parameter placement; empty for Horovod scenarios.
	Placement string `json:"placement,omitempty"`
	// Schedule is the pipeline schedule; empty for Horovod scenarios.
	Schedule string `json:"schedule,omitempty"`
	// Interleave is the partitioner's interleave degree V; 0 and 1 both mean
	// the classic contiguous placement.
	Interleave int `json:"interleave,omitempty"`
	// Faults is the fault-plan spec; empty for fault-free (and Horovod)
	// scenarios.
	Faults string `json:"faults,omitempty"`
	// Traffic is the serving traffic spec; empty for training scenarios.
	Traffic string `json:"traffic,omitempty"`
	// D is the WSP clock-distance bound.
	D int `json:"d"`
	// Nm is the requested concurrent-minibatch count (0 = auto).
	Nm int `json:"nm"`
	// Batch is the per-minibatch sample count.
	Batch int `json:"batch"`
	// MinibatchesPerVW sizes the simulation (0 = D-aware default).
	MinibatchesPerVW int `json:"minibatchesPerVW,omitempty"`
}

// ID renders a compact, unique scenario label, e.g.
// "vgg19/paper/wsp/hetpipe-fifo/ED/default/d0/nm-auto". Faulted scenarios
// gain a trailing "/f:<spec>" segment and serving scenarios a "/t:<spec>"
// segment; fault-free training ones keep the bare form.
func (s *Scenario) ID() string {
	if s.SyncMode == SyncHorovod {
		return fmt.Sprintf("%s/%s/%s", s.Model, s.Cluster, s.SyncMode)
	}
	nm := fmt.Sprintf("nm%d", s.Nm)
	if s.Nm == 0 {
		nm = "nm-auto"
	}
	schedule := s.Schedule
	if s.Interleave > 1 {
		// The V segment appears only for chunked placements, so every
		// pre-interleave scenario ID is unchanged.
		schedule = fmt.Sprintf("%s-v%d", s.Schedule, s.Interleave)
	}
	id := fmt.Sprintf("%s/%s/%s/%s/%s/%s/d%d/%s",
		s.Model, s.Cluster, s.SyncMode, schedule, s.Policy, s.Placement, s.D, nm)
	if s.Faults != "" {
		id += "/f:" + s.Faults
	}
	if s.Traffic != "" {
		id += "/t:" + s.Traffic
	}
	return id
}

// twin is the scenario with its position and its fault axis cleared: equal
// for a faulted scenario and its fault-free twin, and — like ID — unique
// among a grid's fault-free scenarios, which differ in at least one other
// field. It is the key a faulted scenario's degradation is computed against.
func (s *Scenario) twin() Scenario {
	c := *s
	c.Index, c.Faults = 0, ""
	return c
}

// Expand validates every axis value and returns the grid's scenarios in
// deterministic order (model-major, then cluster, sync mode, schedule,
// interleave, policy, placement, faults, traffic, D, Nm). Repeated axis
// values are deduplicated, Horovod scenarios collapse the schedule,
// interleave, policy, placement, faults, traffic, D, and Nm axes (exactly
// one baseline run per model and cluster), schedules without interleave
// support collapse the interleave axis to V=1, and serving scenarios
// (non-empty Traffic) collapse the D and placement axes to a single D=0,
// default-placement cell.
func (g Grid) Expand() ([]Scenario, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	syncModes := dedup(g.SyncModes)
	if len(syncModes) == 0 {
		syncModes = []string{SyncWSP}
	}
	placements := dedup(g.Placements)
	if len(placements) == 0 {
		placements = []string{PlacementDefault}
	}
	schedules := dedup(g.Schedules)
	if len(schedules) == 0 {
		schedules = []string{sched.Default().Name()}
	}
	interleaves := dedup(g.Interleaves)
	if len(interleaves) == 0 {
		interleaves = []int{1}
	}
	faults := dedup(g.Faults)
	if len(faults) == 0 {
		faults = []string{""}
	}
	traffics := dedup(g.Traffics)
	if len(traffics) == 0 {
		traffics = []string{""}
	}
	dValues := dedup(g.DValues)
	if len(dValues) == 0 {
		dValues = []int{0}
	}
	nmValues := dedup(g.NmValues)
	if len(nmValues) == 0 {
		nmValues = []int{0}
	}
	batch := core.ResolveBatch(g.Batch)
	var out []Scenario
	for _, m := range dedup(g.Models) {
		for _, cl := range dedup(g.Clusters) {
			for _, sync := range syncModes {
				if sync == SyncHorovod {
					out = append(out, Scenario{
						Index: len(out), Model: m, Cluster: cl,
						SyncMode: SyncHorovod, Batch: batch,
					})
					continue
				}
				for _, sc := range schedules {
					vs := interleaves
					if s, err := sched.ByName(sc); err == nil && !s.SupportsInterleave() {
						// A schedule that cannot run chunked placements gets
						// exactly one V=1 cell, not a duplicate per degree.
						vs = []int{1}
					}
					for _, v := range vs {
						if v == 1 {
							// Normalize the default degree to the zero value so
							// V=1 scenarios serialize exactly as before the
							// interleave axis existed.
							v = 0
						}
						for _, pol := range dedup(g.Policies) {
							for pi, pl := range placements {
								for _, fs := range faults {
									for _, tf := range traffics {
										ds, place := dValues, pl
										if tf != "" {
											// Serving runs no WSP protocol, so
											// neither the clock bound nor the
											// parameter placement shapes the
											// timeline: one D=0, default-placement
											// cell per serving spec, not a
											// duplicate per D or placement value.
											if pi > 0 {
												continue
											}
											ds, place = []int{0}, PlacementDefault
										}
										for _, d := range ds {
											for _, nm := range nmValues {
												out = append(out, Scenario{
													Index: len(out), Model: m, Cluster: cl,
													SyncMode: sync, Schedule: sc,
													Interleave: v,
													Policy:     pol, Placement: place,
													Faults: fs, Traffic: tf,
													D: d, Nm: nm, Batch: batch,
													MinibatchesPerVW: g.MinibatchesPerVW,
												})
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// dedup drops repeated axis values, keeping first-occurrence order, so a
// grid like DValues: [0,4,0] cannot emit duplicate scenarios (Scenario.ID
// stays unique and Summarize's candidate counts stay honest).
func dedup[T comparable](vals []T) []T {
	seen := make(map[T]bool, len(vals))
	var out []T
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// validate rejects unknown or out-of-range axis values before any
// simulation starts, so a typo fails the whole sweep instead of producing a
// grid of per-scenario errors.
func (g Grid) validate() error {
	if len(g.Models) == 0 {
		return fmt.Errorf("sweep: grid needs at least one model (have %v)", model.Names())
	}
	if len(g.Clusters) == 0 {
		return fmt.Errorf("sweep: grid needs at least one cluster (have %v)", hw.ClusterNames())
	}
	for _, m := range g.Models {
		if _, err := model.ByName(m); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, c := range g.Clusters {
		if _, err := hw.ClusterByName(c); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	wsp := len(g.SyncModes) == 0
	for _, s := range g.SyncModes {
		switch s {
		case SyncWSP:
			wsp = true
		case SyncHorovod:
		default:
			return fmt.Errorf("sweep: unknown sync mode %q (want %q or %q)", s, SyncWSP, SyncHorovod)
		}
	}
	if wsp && len(g.Policies) == 0 {
		return fmt.Errorf("sweep: WSP scenarios need at least one policy (want NP, ED, or HD)")
	}
	for _, p := range g.Policies {
		if _, err := hw.PolicyByName(p); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, p := range g.Placements {
		if p != PlacementDefault && p != PlacementLocal {
			return fmt.Errorf("sweep: unknown placement %q (want %q or %q)", p, PlacementDefault, PlacementLocal)
		}
	}
	for _, s := range g.Schedules {
		if _, err := sched.ByName(s); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, v := range g.Interleaves {
		if v < 1 {
			return fmt.Errorf("sweep: interleave degree must be >= 1, got %d", v)
		}
	}
	for _, f := range g.Faults {
		if _, err := fault.Parse(f); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, tf := range g.Traffics {
		if tf == "" {
			continue
		}
		if _, err := serve.ParseTraffic(tf); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, d := range g.DValues {
		if d < 0 {
			return fmt.Errorf("sweep: D must be >= 0, got %d", d)
		}
	}
	for _, nm := range g.NmValues {
		if nm < 0 {
			return fmt.Errorf("sweep: Nm must be >= 0 (0 = auto), got %d", nm)
		}
	}
	if g.Batch < 0 {
		return fmt.Errorf("sweep: batch must be >= 0 (0 = 32), got %d", g.Batch)
	}
	if g.MinibatchesPerVW < 0 {
		return fmt.Errorf("sweep: minibatches per VW must be >= 0 (0 = D-aware default), got %d", g.MinibatchesPerVW)
	}
	return nil
}
