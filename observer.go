package hetpipe

import "hetpipe/internal/obs"

// Event is one observation from an in-flight run: the emitting Backend
// ("sim" under Simulate, "live" under Train, "serve" under Serve), the Kind,
// the 0-based virtual worker VW (-1 for cluster-wide events), and the fields
// the kind fills in — Minibatch, Wave, Clock, Time (virtual seconds under
// Simulate and Serve, wall-clock seconds under Train), Fault (the injected
// fault in the WithFaults spec language, e.g. "crash:w2:mb40"), Request and
// Batch; the rest are zero. It is the backends' own event type, so an
// observer sees exactly what a backend emitted.
type Event = obs.Event

// EventKind discriminates run-observation events; its String names the kind
// ("minibatch", "push", ..., "unknown" outside the vocabulary).
type EventKind = obs.Kind

const (
	// EventMinibatch fires when a virtual worker completes one minibatch.
	EventMinibatch = obs.KindMinibatch
	// EventPush fires when a virtual worker's per-wave aggregated update
	// reaches the parameter servers.
	EventPush = obs.KindPush
	// EventPull fires when a virtual worker's gated pull of the global
	// weights is satisfied.
	EventPull = obs.KindPull
	// EventClockAdvance fires when the WSP global clock is observed to
	// advance.
	EventClockAdvance = obs.KindClock
	// EventFaultInject fires when a WithFaults plan entry takes effect: a
	// straggler slowdown's first affected minibatch, a crash, a shard stall,
	// or a link degradation. Event.Fault names the fault.
	EventFaultInject = obs.KindFaultInject
	// EventRecover fires when a crashed worker is back, with the crash's
	// label in Event.Fault: Simulate gives the crash's Minibatch, Train the
	// Minibatch its replay resumes at and the checkpoint's pushed-wave Clock,
	// Serve the crashed microbatch's Batch.
	EventRecover = obs.KindRecover
	// EventArrive fires when a serving request enters the system and is
	// routed (Serve); Event.Request is the request id and Event.VW the
	// chosen replica.
	EventArrive = obs.KindArrive
	// EventAdmit fires when the serving admission layer coalesces queued
	// requests into a microbatch; Event.Batch is the replica-local batch
	// sequence and Event.Request the number of requests coalesced.
	EventAdmit = obs.KindAdmit
	// EventReply fires when a serving request's microbatch completes the
	// pipeline; Event.Request is the request id and Event.Batch its batch.
	EventReply = obs.KindReply
)

// Observer receives the event stream of a run (see WithObserver). All
// backends serialize their calls, so an Observer needs no internal locking;
// it runs on the hot path, so it should return quickly (hand expensive work
// to a channel or goroutine of your own).
type Observer = obs.Func
