// Package sched defines the pipeline-schedule subsystem: the execution
// discipline a virtual worker uses to drive minibatches through its stages.
//
// HetPipe (Section 4) fixes a single discipline — FIFO injection with up to
// Nm minibatches in flight and receives that serialize with computation —
// and Section 9 names PipeDream-style communication/computation overlap as
// the improvement it leaves on the table. The schedule choice changes both
// steady-state throughput and, critically, peak activation memory: GPipe's
// fill-drain stashes a whole wave of activations on every stage, while
// strict 1F1B holds at most stage-depth activations, so a memory-constrained
// virtual worker can admit a larger Nm under 1F1B than under HetPipe's FIFO.
//
// A Schedule is pure identity plus the analytical models every layer needs:
// the partitioner and profile use ChunkStash and WeightVersions to
// size per-stage memory, the executor (internal/pipeline) reads three
// declared decisions — Inject, Pick, OverlapRecv — plus InFlightCap to shape
// the discrete-event task graph, and the public API and sweep grids carry
// the Name. The package has no dependencies so that
// profile, partition, pipeline, core, sweep, and the root API can all import
// it.
//
// Two post-HetPipe disciplines generalize the stage model from one
// contiguous layer range to a set of chunks: "interleaved" (Megatron-LM
// virtual stages — each worker holds V non-contiguous chunks, shrinking the
// pipeline bubble by a factor of V) and "2bw" (PipeDream-2BW — 1F1B timing
// with double-buffered weight updates, trading one extra weight copy for
// 1F1B's small activation footprint without pipeline flushes). Schedules
// whose discipline is chunk-aware report SupportsInterleave; the stash model
// is expressed per virtual stage through ChunkStash, of which a contiguous
// V=1 stage is the vstages = k case.
package sched

import (
	"fmt"
	"sort"
)

// Schedule names, as accepted by ByName, hetpipe.WithSchedule, the
// -schedule CLI flags, and sweep grids.
const (
	// NameFIFO is the paper's own discipline (Section 4): FIFO injection
	// with up to Nm minibatches in flight, receives serialized with compute.
	NameFIFO = "hetpipe-fifo"
	// nameGPipe is fill-drain: inject a wave of Nm forwards, barrier, then
	// drain all backwards before the next wave starts.
	nameGPipe = "gpipe"
	// NameOneF1B is strict one-forward-one-backward: after a per-stage
	// warmup, each stage alternates forward and backward work, holding at
	// most stage-depth activations.
	NameOneF1B = "1f1b"
	// NameOverlap is HetPipe's FIFO discipline with PipeDream-style
	// communication/computation overlap: receives no longer occupy the
	// receiving GPU (the Section 9 improvement).
	NameOverlap = "hetpipe-overlap"
	// NameInterleaved is the Megatron-LM interleaved virtual-stage schedule:
	// the model is cut into k*V chunks, worker g hosts chunks g, g+k, ...,
	// g+(V-1)k, and the 1F1B discipline runs over the k*V virtual stages with
	// overlapped point-to-point transfers. The fill bubble shrinks by the
	// interleave degree V at the cost of V times the boundary traffic.
	NameInterleaved = "interleaved"
	// nameTwoBW is PipeDream-2BW: 1F1B timing with double-buffered weight
	// updates — each stage keeps two weight versions plus a coalesced
	// gradient buffer, so updates never flush the pipeline.
	nameTwoBW = "2bw"
)

// Inject is when the pipeline admits a new minibatch.
type Inject int

const (
	// InjectSlot admits a minibatch whenever fewer than InFlightCap are in
	// flight (HetPipe Section 4, PipeDream).
	//
	//hetlint:allow surface the zero Inject: schedules get it by leaving the field unset
	InjectSlot Inject = iota
	// InjectWave is fill-drain: a wave of up to InFlightCap minibatches opens
	// only when the pipeline is empty. Two things follow from it rather than
	// being choices of their own — the last stage cannot fuse a forward with
	// its backward, and the wave's backwards are released on the last stage,
	// in minibatch order, when its last forward lands there (the fill barrier).
	InjectWave
)

// Pick is which ready task an idle stage device runs next.
type Pick int

const (
	// PickArrival runs tasks in the order their inputs arrived — the device's
	// FIFO queue is the ready list (Section 4, condition 3).
	//
	//hetlint:allow surface the zero Pick: schedules get it by leaving the field unset
	PickArrival Pick = iota
	// PickBackwardFirst is one-forward-one-backward: a ready backward runs
	// before any forward (deepest chunk first — closest to completion, fastest
	// stash retirement), and virtual stage vs admits a forward only while it
	// holds fewer than vstages-vs forwards not yet retired by a backward.
	PickBackwardFirst
)

// Stash is a schedule's claim about the activation stashes each virtual
// stage holds: the formula ChunkStash evaluates, capped at Nm and floored at
// one.
type Stash int

const (
	// StashRoundTrip is arrival order's 2*(vstages-vs)-1: a stage holds a
	// stash for every minibatch of a balanced round trip below it, and the
	// last stage, which finishes each minibatch back to back, one. It is a
	// model of the balanced case, not a bound: under arrival pick, forwards
	// pile up in front of a slower downstream stage, and then only the
	// in-flight cap bounds what a stage holds.
	StashRoundTrip Stash = iota
	// stashWave is fill-drain's Nm: every stage completes the wave's
	// forwards before any backward frees a stash.
	stashWave
	// stashDepth is backward-first's vstages-vs: virtual stage vs admits at
	// most that many forwards before it must retire a backward.
	stashDepth
)

// Schedule is one pipeline execution discipline. Implementations are
// stateless values; the executor instantiates per-run state itself.
type Schedule interface {
	// Name is the registry key, e.g. "hetpipe-fifo".
	Name() string
	// Description is a one-line summary for CLI listings.
	Description() string
	// ChunkStash bounds the activation stashes held by virtual stage vs
	// (0-based) of a vstages-deep virtual pipeline when nm minibatches are in
	// flight — the schedule's in-flight-activation model, always >= 1. For a
	// chunked plan with k workers at interleave degree V,
	// chunk c of worker g is virtual stage g + c*k of vstages = k*V; a
	// contiguous plan is the degenerate vstages = k case.
	ChunkStash(vs, vstages, nm int) int
	// Stash is the claim ChunkStash evaluates.
	Stash() Stash
	// WeightVersions is the number of weight-sized buffers each stage keeps
	// resident: 2 for the single-version disciplines (weights + gradient
	// buffer, the paper's memory model), 3 for 2BW's double-buffered updates
	// (two weight versions + the coalesced gradient buffer).
	WeightVersions() int
	// SupportsInterleave reports whether the discipline is defined for
	// chunked plans with interleave degree V > 1 (each worker hosting V
	// non-contiguous chunks). The partitioner and executor reject V > 1
	// under schedules that return false.
	SupportsInterleave() bool
	// Inject, Pick and OverlapRecv are the three decisions that shape the
	// executor's task graph (internal/pipeline); everything else a schedule
	// does at run time follows from them.
	Inject() Inject
	Pick() Pick
	// OverlapRecv reports whether receiving activations/gradients overlaps
	// with computation on the receiving GPU (PipeDream-style) instead of
	// serializing with it (the paper's partition cost model).
	OverlapRecv() bool
	// InFlightCap bounds how many minibatches the executor actually keeps in
	// flight for a pipeline of vstages virtual stages configured with Nm:
	// 1F1B-family disciplines cannot use more than the virtual depth, the
	// others use Nm. Contiguous plans pass vstages = k.
	InFlightCap(vstages, nm int) int
}

// discipline is the one Schedule implementation: a row of declared
// decisions and the stash claim that follows from them. The in-flight model
// is derived from the row, so a new schedule is a new entry in the table
// below.
type discipline struct {
	name, desc string
	inject     Inject
	pick       Pick
	overlap    bool
	interleave bool
	weights    int
	stash      Stash
}

func (d *discipline) Name() string             { return d.name }
func (d *discipline) Description() string      { return d.desc }
func (d *discipline) WeightVersions() int      { return d.weights }
func (d *discipline) SupportsInterleave() bool { return d.interleave }
func (d *discipline) Inject() Inject           { return d.inject }
func (d *discipline) Pick() Pick               { return d.pick }
func (d *discipline) OverlapRecv() bool        { return d.overlap }
func (d *discipline) Stash() Stash             { return d.stash }

func (d *discipline) ChunkStash(vs, vstages, nm int) int {
	var bound int
	switch d.stash {
	case StashRoundTrip:
		// Arrival order with a fused last stage: the first stage holds
		// activations for the whole round trip — the Figure 1
		// memory-variance observation. Under overlapped receives the
		// in-transfer activation is charged to the receiver like a stash,
		// so the claim is the same.
		bound = 2*(vstages-vs) - 1
	case stashWave:
		bound = nm
	case stashDepth:
		// Strictly below the round trip's claim on every stage but the
		// last, which is what lets a memory-constrained virtual worker
		// admit a larger Nm under 1F1B. Deep chunks of a worker stash less
		// than its shallow ones, which is what makes interleaving
		// affordable in memory.
		bound = vstages - vs
	}
	if nm < bound {
		bound = nm
	}
	if bound < 1 {
		bound = 1
	}
	return bound
}

func (d *discipline) InFlightCap(vstages, nm int) int {
	// The forward bound at virtual stage 0: a backward-first pipeline never
	// holds more than its virtual depth.
	if d.pick == PickBackwardFirst && nm > vstages {
		return vstages
	}
	return nm
}

// The schedule table; also exported as values for callers that want to
// avoid the registry.
var (
	// FIFO is the paper's Section 4 discipline.
	FIFO Schedule = &discipline{
		name: NameFIFO, weights: 2,
		desc: "HetPipe FIFO (Section 4): Nm in flight, serialized receives",
	}
	// GPipe is fill-drain with a sync barrier per Nm-wave.
	GPipe Schedule = &discipline{
		name: nameGPipe, weights: 2, inject: InjectWave, stash: stashWave,
		desc: "GPipe fill-drain: wave of Nm forwards, barrier, Nm backwards",
	}
	// OneF1B is strict one-forward-one-backward.
	OneF1B Schedule = &discipline{
		name: NameOneF1B, weights: 2, pick: PickBackwardFirst, stash: stashDepth,
		desc: "strict 1F1B: per-stage warmup then alternate, <= stage-depth stashes",
	}
	// Overlap is FIFO with communication/computation overlap on receives.
	Overlap Schedule = &discipline{
		name: NameOverlap, weights: 2, overlap: true,
		desc: "HetPipe FIFO with PipeDream-style comm/compute overlap (Section 9)",
	}
	// Interleaved is the Megatron-LM interleaved virtual-stage schedule: 1F1B
	// over k*V virtual stages with overlapped transfers. Each worker hosts V
	// non-contiguous chunks, so the fill ramp covers only 1/V of the model per
	// worker and the pipeline bubble shrinks accordingly; the price is V times
	// as many boundary transfers, which is why the discipline mandates
	// comm/compute overlap (Megatron's asynchronous point-to-point sends).
	Interleaved Schedule = &discipline{
		name: NameInterleaved, weights: 2, pick: PickBackwardFirst, overlap: true, interleave: true, stash: stashDepth,
		desc: "Megatron-LM interleaved: 1F1B over k*V virtual stages, overlapped transfers",
	}
	// TwoBW is PipeDream-2BW: the 1F1B discipline with double-buffered weight
	// updates. Timing-wise it is 1F1B — the innovation is the memory/update
	// model: each stage keeps two weight versions plus a coalesced gradient
	// buffer (WeightVersions == 3), so weight updates never flush the pipeline
	// and the activation footprint stays at 1F1B's stage-depth bound.
	TwoBW Schedule = &discipline{
		name: nameTwoBW, weights: 3, pick: PickBackwardFirst, stash: stashDepth,
		desc: "PipeDream-2BW: 1F1B timing, double-buffered weights (2 versions + grad buffer)",
	}
)

// registry maps names to schedules.
var registry = map[string]Schedule{
	NameFIFO:        FIFO,
	nameGPipe:       GPipe,
	NameOneF1B:      OneF1B,
	NameOverlap:     Overlap,
	NameInterleaved: Interleaved,
	nameTwoBW:       TwoBW,
}

// Default is the schedule used when none is named: the paper's own
// discipline, hetpipe-fifo.
func Default() Schedule { return FIFO }

// ByName resolves a schedule name; the empty string resolves to Default.
func ByName(name string) (Schedule, error) {
	if name == "" {
		return Default(), nil
	}
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown schedule %q (have %v)", name, Names())
	}
	return s, nil
}

// Names lists the registered schedule names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Or returns s, or Default when s is nil — the standard defaulting helper
// for structs that carry an optional Schedule field.
func Or(s Schedule) Schedule {
	if s == nil {
		return Default()
	}
	return s
}
