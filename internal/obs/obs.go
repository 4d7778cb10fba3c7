// Package obs defines the run-observation events the execution backends
// emit while a HetPipe run is in flight: the discrete-event simulator
// (internal/core.SimulateWSPFaults), the live sharded-PS runtime
// (internal/cluster.Run), and the serving plane (internal/serve.Run) all
// stream the same event vocabulary — protocol and request progress plus
// fault injections and recoveries. The public API aliases these types
// (hetpipe.Event = obs.Event, hetpipe.Observer = obs.Func), so the callback
// given to hetpipe.WithObserver is the very function a backend calls: no
// adapter sits between them. Keeping the types here lets the backends share
// one definition without any of them importing the root package.
package obs

// Kind discriminates observation events.
type Kind int

const (
	// KindMinibatch fires when a virtual worker completes one minibatch.
	KindMinibatch Kind = iota + 1
	// KindPush fires when a virtual worker's per-wave aggregated update
	// reaches the parameter servers.
	KindPush
	// KindPull fires when a virtual worker's gated pull of the global
	// weights is satisfied.
	KindPull
	// KindClock fires when the WSP global clock is observed to advance.
	KindClock
	// KindFaultInject fires when a fault-plan entry (internal/fault) takes
	// effect: a straggler slowdown's first affected minibatch, a crash, a
	// PS-shard stall, or a link degradation's first affected transfer.
	// Event.Fault carries the fault's spec clause.
	KindFaultInject
	// KindRecover fires when a crashed worker is back, with the crash's label
	// in Event.Fault. The simulator emits it when the charged downtime and
	// replay have elapsed, in the crash's Minibatch; the live runtime when the
	// worker is restored from its last checkpoint and about to replay, in the
	// Minibatch it resumes at and the checkpoint's Clock (pushed waves);
	// serving when the crashed microbatch leaves the replica, in its Batch.
	KindRecover
	// KindArrive fires when a serving request enters the system and is
	// routed; Event.Request is the request id and Event.VW the chosen
	// replica.
	KindArrive
	// KindAdmit fires when the serving admission layer coalesces queued
	// requests into a microbatch; Event.Batch is the replica-local batch
	// sequence number and Event.Request the number of requests coalesced.
	KindAdmit
	// KindReply fires when a serving request's microbatch completes the
	// pipeline; Event.Request is the request id and Event.Batch its batch.
	KindReply
)

var kindNames = [...]string{
	KindMinibatch: "minibatch", KindPush: "push", KindPull: "pull",
	KindClock: "clock", KindFaultInject: "fault-inject", KindRecover: "recover",
	KindArrive: "arrive", KindAdmit: "admit", KindReply: "reply",
}

// String names the kind ("minibatch", "push", ...); "unknown" outside the
// vocabulary.
func (k Kind) String() string {
	if k < KindMinibatch || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Event is one observation. Fields that do not apply to a kind are zero.
type Event struct {
	// Backend names the emitting substrate: "sim", "live", or "serve".
	Backend string
	// Kind discriminates the event.
	Kind Kind
	// VW is the 0-based virtual worker index; -1 for cluster-wide events.
	VW int
	// Minibatch is the VW's 1-based minibatch number (KindMinibatch).
	Minibatch int
	// Wave is the 0-based wave index (KindMinibatch, KindPush).
	Wave int
	// Clock is the global clock after the event, where the emitting backend
	// knows it (KindClock and KindPull always; sim pushes too).
	Clock int
	// Time is seconds since run start: virtual seconds for the simulator,
	// wall-clock seconds for the live runtime.
	Time float64
	// Fault describes the injected fault for KindFaultInject and KindRecover
	// events, in the internal/fault spec language (e.g. "crash:w2:mb40").
	Fault string
	// Request is the 0-based serving request id (KindArrive, KindReply);
	// for KindAdmit it carries the number of requests coalesced instead.
	Request int
	// Batch is the replica-local 1-based microbatch sequence number
	// (KindAdmit, KindReply, and serving KindRecover events).
	Batch int
}

// Func observes a stream of events. The simulator calls it from its single
// event-loop goroutine; the live runtime serializes calls, so an observer
// never needs its own locking.
type Func func(Event)
