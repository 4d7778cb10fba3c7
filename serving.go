package hetpipe

import (
	"context"
	"fmt"

	"hetpipe/internal/serve"
)

// LatencySummary condenses a serving latency population: nearest-rank
// percentiles over the recorded per-request latencies, in seconds. All
// fields are zero when Count is 0.
type LatencySummary struct {
	// Count is the population size.
	Count int
	// Mean is the arithmetic mean latency.
	Mean float64
	// P50, P95, and P99 are nearest-rank percentiles.
	P50, P95, P99 float64
	// Max is the largest latency observed.
	Max float64
}

// String renders the summary in a stable, byte-comparable form.
func (l LatencySummary) String() string { return serve.LatencySummary(l).String() }

// ServeReplica summarizes one virtual worker's share of a serving run.
type ServeReplica struct {
	// Replica is the 0-based virtual worker index.
	Replica int
	// Type is the replica's GPU mix, e.g. "VVVV".
	Type string
	// Requests and Batches count the work served.
	Requests, Batches int
	// MeanFill is the mean number of requests coalesced per microbatch.
	MeanFill float64
	// Utilization is the busiest GPU's busy fraction over the run.
	Utilization float64
}

// ServeRequest is one request's lifecycle in a serving run, in virtual
// seconds: At and Done bound the request (latency is Done - At), Replica is
// the virtual worker that served it, and Critical marks latency-critical
// traffic. It is the serving plane's own trace row, so Serve hands a run's
// trace over without copying it.
type ServeRequest = serve.RequestTrace

// ServeResult reports a completed Serve run.
type ServeResult struct {
	// Traffic is the canonical spec of the generator that drove the run.
	Traffic string
	// Offered and Served count requests; a drained run serves its whole
	// offer.
	Offered, Served int
	// Duration is the virtual time of the last reply; ThroughputRPS is
	// Served / Duration.
	Duration, ThroughputRPS float64
	// Batches counts admitted microbatches; MeanBatchFill is the mean
	// requests coalesced per microbatch.
	Batches       int
	MeanBatchFill float64
	// Latency summarizes all requests; Critical and Bulk split it by
	// traffic class.
	Latency, Critical, Bulk LatencySummary
	// Replicas holds the per-virtual-worker splits.
	Replicas []ServeReplica
	// FaultInjections, Crashes, and Recoveries surface the WithFaults
	// plan's effect on the run. FaultInjections counts activations, not
	// clauses: one per slowed replica (however many slow clauses name it),
	// one per replica with a degraded link, one per crash.
	FaultInjections, Crashes, Recoveries int
	// Trace is the per-request lifecycle, indexed by request id.
	Trace []ServeRequest
}

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
	res, err := serve.Run(ctx, d.dep, d.traffic, serve.Options{
		Faults: d.faults,
		Obs:    d.set.obsFunc(),
	})
	if err != nil {
		return nil, err
	}
	out := &ServeResult{
		Traffic:         res.Traffic,
		Offered:         res.Offered,
		Served:          res.Served,
		Duration:        res.Duration,
		ThroughputRPS:   res.ThroughputRPS,
		Batches:         res.Batches,
		MeanBatchFill:   res.MeanBatchFill,
		Latency:         LatencySummary(res.Latency),
		Critical:        LatencySummary(res.Critical),
		Bulk:            LatencySummary(res.Bulk),
		FaultInjections: res.FaultInjections,
		Crashes:         res.Crashes,
		Recoveries:      res.Recoveries,
		Trace:           res.Trace,
	}
	if len(res.Replicas) > 0 {
		out.Replicas = make([]ServeReplica, len(res.Replicas))
	}
	for i, r := range res.Replicas {
		out.Replicas[i] = ServeReplica(r)
	}
	return out, nil
}
