package core

import (
	"errors"
	"fmt"
	"strings"

	"hetpipe/internal/hw"
	"hetpipe/internal/model"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// The resolution failures a Spec reports, always wrapped with the offending
// name and the valid values. The root package re-exports them (options.go),
// which is why they carry its prefix.
var (
	ErrUnknownModel    = errors.New("hetpipe: unknown model")
	ErrUnknownCluster  = errors.New("hetpipe: unknown cluster")
	ErrUnknownSchedule = errors.New("hetpipe: unknown schedule")
	ErrUnknownPolicy   = errors.New("hetpipe: unknown policy")
	ErrNoAllocation    = errors.New("hetpipe: no allocation policy or specs")
	ErrBadInterleave   = errors.New("hetpipe: bad interleave degree")
)

// DefaultBatch is the per-minibatch sample count a zero Batch means.
const DefaultBatch = 32

// ResolveBatch applies the batch default: 0 means DefaultBatch.
func ResolveBatch(batch int) int {
	if batch == 0 {
		return DefaultBatch
	}
	return batch
}

// Spec names a deployment: everything the Section 5-7 flow — allocate GPUs to
// virtual workers, partition, pick Nm — depends on, as plain comparable data.
// It is the one front door: hetpipe.New, hetpipe.Horovod, every cell of a
// sweep grid and every experiment of internal/experiment build a Spec, the
// deployment CLIs' shared flags (internal/cli) parse into one, and all of
// them resolve it — Resolve, or its three steps System, Allocate and Deploy
// where a caller shares the earlier ones or reads the System itself — so
// they validate alike and fail with the same errors. Being comparable, a
// Spec (with the fields a level does not depend on zeroed) is also the key
// internal/sweep caches resolutions under.
type Spec struct {
	// Model is the model-zoo key; Cluster the cluster-catalog key ("" means
	// "paper"); Schedule the pipeline schedule ("" means hetpipe-fifo).
	Model, Cluster, Schedule string
	// Policy is the allocation policy (NP, ED, HD); Specs, when non-empty,
	// overrides it with explicit virtual-worker GPU type strings joined by
	// commas, e.g. "VRQ,VRQ".
	Policy, Specs string
	// Interleave is the partitioner's interleave degree V (0 and 1 both mean
	// contiguous stages); Batch the per-minibatch sample count (0 means
	// DefaultBatch); Nm the concurrent-minibatch count (0 = chosen for
	// throughput); D the WSP clock-distance bound.
	Interleave, Batch, Nm, D int
	// Local selects the ED-local parameter placement.
	Local bool
}

// ClusterName reports the catalog key the spec resolves: "paper" when none
// was given.
func (sp Spec) ClusterName() string {
	if sp.Cluster == "" {
		return "paper"
	}
	return sp.Cluster
}

// System resolves the spec's names into a profiled System: model, cluster
// and schedule lookups, the interleave check, and the batch default.
func (sp Spec) System() (*System, error) {
	m, err := model.ByName(sp.Model)
	if err != nil {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownModel, sp.Model, model.Names())
	}
	c, err := hw.ClusterByName(sp.ClusterName())
	if err != nil {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownCluster, sp.ClusterName(), hw.ClusterNames())
	}
	schedule, err := sched.ByName(sp.Schedule)
	if err != nil {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownSchedule, sp.Schedule, sched.Names())
	}
	if sp.Interleave < 0 {
		return nil, fmt.Errorf("%w: %d (must be >= 0)", ErrBadInterleave, sp.Interleave)
	}
	if sp.Interleave > 1 && !schedule.SupportsInterleave() {
		return nil, fmt.Errorf("%w: schedule %q cannot run V=%d (use %q)",
			ErrBadInterleave, schedule.Name(), sp.Interleave, sched.NameInterleaved)
	}
	sys, err := NewSystemSched(c, m, profile.Default(), ResolveBatch(sp.Batch), schedule)
	if err != nil {
		return nil, err
	}
	sys.Interleave = sp.Interleave
	return sys, nil
}

// Allocate builds the spec's virtual workers on c: explicit Specs when given,
// otherwise the Table 3 policy.
func (sp Spec) Allocate(c *hw.Cluster) (*hw.Allocation, error) {
	switch {
	case sp.Specs != "":
		return hw.AllocateByTypes(c, strings.Split(sp.Specs, ","))
	case sp.Policy != "":
		p, err := hw.PolicyByName(sp.Policy)
		if err != nil {
			return nil, fmt.Errorf("%w %q (want NP, ED, or HD)", ErrUnknownPolicy, sp.Policy)
		}
		return hw.Allocate(c, p)
	}
	return nil, fmt.Errorf("%w: use WithPolicy or WithSpecs", ErrNoAllocation)
}

// Deploy plans the allocation on sys at the spec's Nm, D and placement.
func (sp Spec) Deploy(sys *System, alloc *hw.Allocation) (*Deployment, error) {
	placement := PlacementDefault
	if sp.Local {
		placement = PlacementLocal
	}
	return sys.Deploy(alloc, sp.Nm, sp.D, placement)
}

// Resolve takes the spec all the way: System, Allocate, Deploy.
func (sp Spec) Resolve() (*Deployment, error) {
	sys, err := sp.System()
	if err != nil {
		return nil, err
	}
	alloc, err := sp.Allocate(sys.Cluster)
	if err != nil {
		return nil, err
	}
	return sp.Deploy(sys, alloc)
}
