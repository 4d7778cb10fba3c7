package serve

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"hetpipe/internal/core"
	"hetpipe/internal/fault"
	"hetpipe/internal/obs"
	"hetpipe/internal/pipeline"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
)

// Options tunes a serving run beyond the deployment and traffic spec.
type Options struct {
	// Faults is a deterministic fault-injection plan (internal/fault). A nil
	// or empty plan takes exactly the fault-free code path, so its results
	// are bit-identical to a run without one. Slowdowns scale the affected
	// replica's stage times per microbatch, crashes charge the crash
	// downtime to the crashed microbatch (serving holds no optimizer state,
	// so there is nothing to replay), and link degradations stretch the
	// replica's inter-stage activation transfers. PS-shard stalls are inert:
	// inference runs no parameter synchronization.
	Faults *fault.Plan
	// Obs streams serving events (arrivals, admissions, replies, fault
	// injections and recoveries) in virtual time; nil disables emission.
	Obs obs.Func
}

// RequestTrace is one request's lifecycle, in seconds of virtual time.
type RequestTrace struct {
	// At is the arrival time.
	At float64
	// Done is the reply time; latency is Done - At.
	Done float64
	// Replica is the virtual worker that served the request.
	Replica int
	// Critical marks latency-critical traffic.
	Critical bool
}

// ReplicaStats summarizes one virtual worker's share of a serving run.
type ReplicaStats struct {
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

// Result reports a completed serving run.
type Result struct {
	// Traffic is the canonical spec of the generator that drove the run.
	Traffic string
	// Offered and Served count requests; a drained run serves its whole
	// offer.
	Offered, Served int
	// Duration is the virtual time of the last reply.
	Duration float64
	// ThroughputRPS is Served / Duration.
	ThroughputRPS float64
	// Batches counts admitted microbatches across all replicas; MeanBatchFill
	// is the mean requests coalesced per microbatch.
	Batches       int
	MeanBatchFill float64
	// Latency summarizes all requests; Critical and Bulk split it by traffic
	// class (zero-valued when a class is empty).
	Latency, Critical, Bulk LatencySummary
	// Replicas holds the per-virtual-worker splits.
	Replicas []ReplicaStats
	// FaultInjections counts fault activations, not plan clauses: one per
	// replica the first time a slowdown covers a microbatch it admits (two
	// disjoint slow clauses on one replica count once), one per replica with
	// a degraded link, one per crash; PS stalls are inert here. Crashes and
	// Recoveries count crash events and their completed recoveries.
	FaultInjections, Crashes, Recoveries int
	// Trace is the per-request lifecycle, indexed by request id.
	Trace []RequestTrace
}

// TraceString renders the request trace in a stable byte-comparable form —
// one line per request — for the seed-determinism pins.
func (r *Result) TraceString() string {
	var b strings.Builder
	b.Grow(len(r.Trace) * 48)
	for i, t := range r.Trace {
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(t.At, 'g', -1, 64))
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(t.Replica))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(t.Done, 'g', -1, 64))
		if t.Critical {
			b.WriteString(" crit")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// replica is one virtual worker acting as an inference server: the
// pipeline executor runs its partition plan's virtual stages forward-only
// under the deployment's schedule, and the replica keeps what is serving's
// own — admission with up to cap microbatches in flight, the routing
// estimates, fault bookkeeping and request accounting.
type replica struct {
	srv *server
	w   int
	x   *pipeline.Executor

	cap      int     // schedule's in-flight microbatch bound
	bottle   float64 // per-microbatch time on the busiest GPU (routing)
	fill     float64 // serial traversal time of the whole pipeline (routing)
	inFlight int

	// routed holds the request ids routed here, in arrival order: those
	// before done have been replied to, those before admitted are in flight,
	// and the rest wait (done <= admitted <= len(routed)). Microbatches are
	// admitted and complete in that same order. counts holds per-microbatch
	// request counts. Both are head-indexed rings over reusable backing
	// arrays, so the steady-state admission path allocates nothing.
	routed   []int32
	done     int
	admitted int
	counts   []int32
	cntHead  int

	admitSeq int // microbatches admitted (1-based seq of the latest)
	requests int // requests served

	cur fault.Cursor // the replica's fault state (inert under an empty plan)
}

// server is one serving run's state: the request table, the replicas, and
// the generators' runtime side.
type server struct {
	eng *sim.Engine
	dep *core.Deployment
	tr  *Traffic
	ob  obs.Func

	faulty   bool
	batchCap int
	replicas []*replica

	// trace is the one per-request table, indexed by request id and
	// preallocated to the offer: the generators write At and Critical, routing
	// Replica, the reply Done, and the drained run hands it out as
	// Result.Trace.
	trace []RequestTrace

	// Closed-loop state: the arrival handler's id, each user's private
	// think/class stream and each request's user.
	arriveID int32
	users    []*rand.Rand
	user     []int32
	issued   int

	faultInjections, crashes, recoveries int
}

// Run serves the traffic against the deployment on a fresh engine. See RunOn.
func Run(ctx context.Context, dep *core.Deployment, tr *Traffic, opt Options) (*Result, error) {
	return RunOn(ctx, sim.New(), dep, tr, opt)
}

// RunOn serves the traffic against the deployment on a caller-owned engine
// (Reset first, so a warm engine re-serves without re-growing its arena).
// Every virtual worker becomes a serving replica running its partition
// plan's virtual stages forward-only under the deployment's pipeline
// schedule: the schedule's InFlightCap bounds concurrent microbatches per
// replica, OverlapRecv decides whether inter-stage activation receives
// occupy the receiving GPU, and the admission layer coalesces queued
// requests into microbatches of up to the deployment's batch size the
// moment an in-flight slot frees — continuous batching, never waiting for a
// full batch. Requests are routed at arrival to the replica with the
// smallest estimated drain time; latency-critical requests additionally
// charge the candidate's pipeline fill time, steering them to fast
// replicas. A microbatch's per-stage cost is the plan's per-minibatch
// forward time regardless of how full it is, which is exactly what makes
// coalescing profitable.
//
// The run is deterministic: the same deployment, traffic spec, and fault
// plan reproduce a byte-identical Result (trace and summaries included) on
// every run and any engine.
func RunOn(ctx context.Context, eng *sim.Engine, dep *core.Deployment, tr *Traffic, opt Options) (*Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("serve: nil traffic")
	}
	if err := tr.validate(); err != nil {
		return nil, err
	}
	if len(dep.VWs) == 0 {
		return nil, fmt.Errorf("serve: empty deployment")
	}
	if tr.Kind == kindClosed && tr.Users > tr.N {
		return nil, fmt.Errorf("serve: closed loop with %d users needs at least that many requests, got n%d", tr.Users, tr.N)
	}
	eng.Reset()
	fp, err := opt.Faults.Materialize(len(dep.VWs))
	if err != nil {
		return nil, err
	}
	s := &server{
		eng:      eng,
		dep:      dep,
		tr:       tr,
		ob:       opt.Obs,
		faulty:   !fp.Empty(),
		batchCap: dep.Sys.Batch,
		trace:    make([]RequestTrace, tr.N),
	}
	if s.batchCap < 1 {
		s.batchCap = 1
	}
	disc := sched.Or(dep.Sys.Schedule)
	depth := 1
	for w, vp := range dep.VWs {
		k := len(vp.Plan.Stages)
		times := pipeline.Times(vp.Plan)
		if len(times) > depth {
			depth = len(times)
		}
		r := &replica{srv: s, w: w, cap: disc.InFlightCap(len(times), dep.Nm)}
		if r.cap < 1 {
			r.cap = 1
		}
		ec := pipeline.ExecConfig{
			Times: times, GPUs: k,
			Schedule: disc, ForwardOnly: true, AtEnd: r.batchDone,
		}
		link := 1.0
		if s.faulty {
			link = fp.LinkScale(w)
			r.cur = fp.Cursor(w)
			ec.TaskTime = r.taskTime
		}
		// The link factor scales the receive column before the compute scale
		// (taskTime) multiplies a task's sum.
		for vs := range times {
			times[vs].RecvAct *= link
			r.fill += times[vs].Fwd + times[vs].RecvAct
		}
		for g := 0; g < k; g++ {
			var busy float64
			for vs := g; vs < len(times); vs += k {
				busy += times[vs].Fwd
				if !disc.OverlapRecv() {
					busy += times[vs].RecvAct
				}
			}
			if busy > r.bottle {
				r.bottle = busy
			}
		}
		r.x = pipeline.NewExecutor(eng, ec)
		s.replicas = append(s.replicas, r)
	}
	eng.SetStepLimit(uint64(tr.N)*uint64(8*depth+16) + 1_000_000)

	if tr.Open() {
		// Open-loop arrival times are known before the run starts, so they are
		// generated straight into the trace and merged into the run in time
		// order; they never enter the event queue.
		g := tr.generator()
		for i := range s.trace {
			s.trace[i].At, s.trace[i].Critical = g.next()
		}
		err = eng.RunMerged(ctx, tr.N, s.arrivalAt, s.arrive)
	} else {
		// A closed loop's arrivals depend on replies; they ride the queue.
		s.arriveID = eng.Register(func(id, _ int32, _ float64) { s.arrive(int(id)) })
		s.users = make([]*rand.Rand, tr.Users)
		for u := range s.users {
			s.users[u] = tr.userStream(u)
		}
		s.user = make([]int32, tr.N)
		for u := 0; u < tr.Users && s.issued < tr.N; u++ {
			s.issueNext(int32(u))
		}
		err = eng.RunContext(ctx)
	}
	if err != nil {
		return nil, err
	}
	res := s.result()
	if res.Served != tr.N {
		return nil, fmt.Errorf("serve: run stalled at %d of %d requests served", res.Served, tr.N)
	}
	return res, nil
}

// result assembles the Result after the engine has drained. The run's counts
// are its replicas' summed: in a drained run every admitted request was
// served once, so the requests coalesced into microbatches are the requests
// served.
func (s *server) result() *Result {
	served, batches := 0, 0
	for _, r := range s.replicas {
		served += r.requests
		batches += r.admitSeq
	}
	res := &Result{
		Traffic:         s.tr.String(),
		Offered:         s.tr.N,
		Served:          served,
		Duration:        float64(s.eng.Now()),
		Batches:         batches,
		FaultInjections: s.faultInjections,
		Crashes:         s.crashes,
		Recoveries:      s.recoveries,
		Trace:           s.trace,
	}
	if res.Duration > 0 {
		res.ThroughputRPS = float64(res.Served) / res.Duration
	}
	if res.Batches > 0 {
		res.MeanBatchFill = float64(res.Served) / float64(res.Batches)
	}
	res.Latency, res.Critical, res.Bulk = summaries(s.trace)
	for _, r := range s.replicas {
		st := ReplicaStats{
			Replica:  r.w,
			Type:     s.dep.VWs[r.w].VW.TypeString(),
			Requests: r.requests,
			Batches:  r.admitSeq,
		}
		if r.admitSeq > 0 {
			st.MeanFill = float64(r.requests) / float64(r.admitSeq)
		}
		for _, g := range r.x.Devices() {
			if u := g.Utilization(); u > st.Utilization {
				st.Utilization = u
			}
		}
		res.Replicas = append(res.Replicas, st)
	}
	return res
}

// issueNext schedules user u's next request: its class and arrival time come
// from the user's private stream (see Traffic.userStream), so they are
// independent of how the users' requests interleave.
//
//hetlint:hotpath
func (s *server) issueNext(u int32) {
	id := int32(s.issued)
	s.issued++
	rng := s.users[u]
	at := float64(s.eng.Now()) + rng.ExpFloat64()*s.tr.Think
	s.trace[id].At = at
	s.trace[id].Critical = rng.Float64() < s.tr.Crit
	s.user[id] = u
	s.eng.AtID(sim.Time(at), s.arriveID, id, 0, 0)
}

// arrivalAt is the open-loop arrival stream's clock, as Engine.RunMerged
// reads it.
//
//hetlint:hotpath
func (s *server) arrivalAt(id int) sim.Time { return sim.Time(s.trace[id].At) }

// arrive fires when request id arrives — merged into the run (open loop) or
// off the queue (closed loop): route, enqueue, admit.
//
//hetlint:hotpath
func (s *server) arrive(id int) {
	t := &s.trace[id]
	t.Replica = s.route(t.Critical)
	if s.ob != nil {
		s.emit(obs.Event{Kind: obs.KindArrive, VW: t.Replica, Request: id})
	}
	r := s.replicas[t.Replica]
	r.enqueue(int32(id))
	r.admit()
}

// route picks the serving replica: the smallest estimated drain time, where
// a critical request also pays the candidate's pipeline fill — so critical
// traffic prefers fast replicas while bulk traffic spreads by backlog. Ties
// break to the lowest index, keeping the choice deterministic.
//
//hetlint:hotpath
func (s *server) route(critical bool) int {
	best := 0
	bestEst := 0.0
	for w, r := range s.replicas {
		backlog := r.inFlight
		if q := r.queued(); q > 0 { // an empty queue adds 0; skip the division
			backlog += (q + s.batchCap - 1) / s.batchCap
		}
		est := float64(backlog) * r.bottle
		if critical {
			est += r.fill
		}
		if w == 0 || est < bestEst {
			best, bestEst = w, est
		}
	}
	return best
}

// emit stamps and forwards one observer event; callers check s.ob first so
// the fault-free, observer-free hot path skips the call entirely.
func (s *server) emit(e obs.Event) {
	e.Backend = "serve"
	e.Time = float64(s.eng.Now())
	s.ob(e)
}

// queued reports the replica's unadmitted backlog.
//
//hetlint:hotpath
func (r *replica) queued() int { return len(r.routed) - r.admitted }

// enqueue appends a routed request to the ring, compacting the replied
// prefix once it dominates (the engine-queue idiom) so a backlog that never
// fully drains still reuses its backing array.
//
//hetlint:hotpath
func (r *replica) enqueue(id int32) {
	if r.done >= 16 && r.done >= len(r.routed)-r.done {
		n := copy(r.routed, r.routed[r.done:])
		r.routed = r.routed[:n]
		r.admitted -= r.done
		r.done = 0
	}
	r.routed = append(r.routed, id)
}

// admit is the continuous-batching admission layer: whenever the replica has
// a free in-flight slot and a backlog, it coalesces up to batchCap queued
// requests into one microbatch and enters it into the executor — it never
// waits for a batch to fill.
//
//hetlint:hotpath
func (r *replica) admit() {
	s := r.srv
	for r.inFlight < r.cap && r.queued() > 0 {
		n := r.queued()
		if n > s.batchCap {
			n = s.batchCap
		}
		r.admitted += n
		if r.cntHead >= 16 && r.cntHead >= len(r.counts)-r.cntHead {
			m := copy(r.counts, r.counts[r.cntHead:])
			r.counts = r.counts[:m]
			r.cntHead = 0
		}
		r.counts = append(r.counts, int32(n))
		r.admitSeq++
		r.inFlight++
		if s.faulty {
			r.injectStarts(r.admitSeq)
		}
		if s.ob != nil {
			s.emit(obs.Event{Kind: obs.KindAdmit, VW: r.w, Batch: r.admitSeq, Request: n})
		}
		r.x.Enter(r.admitSeq)
	}
}

// taskTime is the executor's TaskTime hook under a non-empty fault plan (the
// fault-free path installs none, so it stays the identity path): a slowdown
// scales the microbatch's stage tasks, while an overlapped transfer rides the
// link, whose degradation is already in the time table.
//
//hetlint:hotpath
func (r *replica) taskTime(seq, g int, base float64) float64 {
	if g == pipeline.Link {
		return base
	}
	scale, charge := r.cur.Task(seq, g)
	dur := base * scale
	// The crash charge lands once, on the crashed microbatch's first stage
	// task — the replica-local stall. Serving holds no optimizer state, so
	// recovery is the downtime alone: no checkpoint replay.
	if charge > 0 {
		dur += charge
	}
	return dur
}

// batchDone fires when microbatch seq leaves the executor's last virtual
// stage: stamp every member's reply, free the in-flight slot, and re-run
// admission. A forward-only executor runs its stages in arrival order, so
// microbatches complete in admission order and the next n ids past done are
// exactly the requests this batch carried.
//
//hetlint:hotpath
func (r *replica) batchDone(seq int) {
	s := r.srv
	r.inFlight--
	n := int(r.counts[r.cntHead])
	r.cntHead++
	now := float64(s.eng.Now())
	for i := 0; i < n; i++ {
		id := r.routed[r.done]
		r.done++
		s.trace[id].Done = now
		r.requests++
		if s.ob != nil {
			s.emit(obs.Event{Kind: obs.KindReply, VW: r.w, Request: int(id), Batch: seq})
		}
		if s.tr.Kind == kindClosed && s.issued < s.tr.N {
			s.issueNext(s.user[id])
		}
	}
	if s.faulty {
		if f := r.cur.Recover(seq); f != "" {
			// The charged downtime elapsed inside this batch; the replica is
			// back.
			s.recoveries++
			if s.ob != nil {
				s.emit(obs.Event{Kind: obs.KindRecover, VW: r.w, Batch: seq, Fault: f})
			}
		}
	}
	r.admit()
}

// injectStarts emits the one-shot fault injections owed when microbatch seq
// is admitted on the replica: the slowdown's first affected batch, the link
// degradation's first use, and the crash itself. Cold path — each fires at
// most once per run.
func (r *replica) injectStarts(seq int) {
	s := r.srv
	_, slow := r.cur.Slow(seq)
	s.inject(r.w, slow)
	_, link := r.cur.Link()
	s.inject(r.w, link)
	if crash := r.cur.Crash(seq); crash != "" {
		s.crashes++
		s.inject(r.w, crash)
	}
}

// inject counts and reports the fault activation f reports, if any.
func (s *server) inject(vw int, f string) {
	if f == "" {
		return
	}
	s.faultInjections++
	if s.ob != nil {
		s.emit(obs.Event{Kind: obs.KindFaultInject, VW: vw, Fault: f})
	}
}

// Curve runs the same open-loop traffic at each offered rate and returns the
// per-rate results — the latency-vs-offered-throughput curve of the serving
// evaluation. The runs share one warm engine; each point is independently
// deterministic. Closed-loop traffic has no rate to turn and fails before
// anything runs.
func Curve(ctx context.Context, dep *core.Deployment, tr *Traffic, rates []float64, opt Options) ([]*Result, error) {
	if !tr.Open() {
		return nil, fmt.Errorf("serve: a rate curve needs open-loop traffic, got %s", tr)
	}
	eng := sim.New()
	out := make([]*Result, 0, len(rates))
	for _, rate := range rates {
		res, err := RunOn(ctx, eng, dep, tr.withRate(rate), opt)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
