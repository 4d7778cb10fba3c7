package hetpipe

import (
	"context"
	"fmt"

	"hetpipe/internal/serve"
)

// The serving result types are the serving plane's own, so Serve hands a
// run's result over without copying it.
type (
	// ServeResult reports a completed Serve run: the canonical Traffic spec,
	// Offered/Served request counts, virtual Duration and ThroughputRPS,
	// Batches and MeanBatchFill, the Latency summary with its Critical/Bulk
	// split, per-replica splits, the fault counters, and the request Trace.
	ServeResult = serve.Result
	// ServeReplica summarizes one virtual worker's share of a serving run.
	ServeReplica = serve.ReplicaStats
	// LatencySummary condenses a serving latency population: nearest-rank
	// percentiles over the per-request latencies, in seconds. All fields are
	// zero when Count is 0; String renders a stable, byte-comparable form.
	LatencySummary = serve.LatencySummary
	// ServeRequest is one request's lifecycle in a serving run, in virtual
	// seconds: At and Done bound the request (latency is Done - At), Replica
	// is the virtual worker that served it, and Critical marks
	// latency-critical traffic.
	ServeRequest = serve.RequestTrace
)

// Traffic reports the canonical WithTraffic spec the deployment serves, or
// "" when serving is not configured.
func (d *Deployment) Traffic() string {
	if d.traffic == nil {
		return ""
	}
	return d.traffic.String()
}

// Serve runs the deployment as an inference-serving system: the WithTraffic
// generator offers requests, a continuous-batching admission layer coalesces
// them into forward-only microbatches bounded by the deployment's batch size
// and the schedule's in-flight cap, and a router spreads them across the
// virtual workers — each acting as a serving replica — preferring fast
// replicas for latency-critical traffic. The WithFaults plan applies:
// slowdowns stretch the affected replica's stage times, crashes charge their
// downtime and surface in the recovery counters, link degradations stretch
// inter-stage transfers (an empty plan is bit-identical to the fault-free
// path). The run is aborted with ctx.Err() when ctx is cancelled; a
// configured observer streams arrivals, admissions, and replies in virtual
// time. Serve is deterministic: the same options reproduce an identical
// ServeResult on every call. It reports ErrNoTraffic when the deployment was
// resolved without WithTraffic.
func (d *Deployment) Serve(ctx context.Context) (*ServeResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d.traffic == nil {
		return nil, fmt.Errorf("%w: use WithTraffic", ErrNoTraffic)
	}
	return serve.Run(ctx, d.dep, d.traffic, serve.Options{Faults: d.faults, Obs: d.set.observer})
}
