package hetpipe

import (
	"errors"
	"strings"
	"time"

	"hetpipe/internal/core"
)

// Sentinel errors returned by New, Horovod, and the Deployment methods. They
// are always wrapped with context (the offending name, the valid values), so
// match them with errors.Is rather than string comparison. The six a
// deployment's resolution can report are core.Spec's own.
var (
	// ErrUnknownModel reports a model name outside the zoo (see Models).
	ErrUnknownModel = core.ErrUnknownModel
	// ErrUnknownCluster reports a cluster name outside the catalog (see
	// Clusters).
	ErrUnknownCluster = core.ErrUnknownCluster
	// ErrUnknownPolicy reports an allocation policy other than NP, ED, HD.
	ErrUnknownPolicy = core.ErrUnknownPolicy
	// ErrUnknownTask reports a live-training task other than logreg or mlp.
	ErrUnknownTask = errors.New("hetpipe: unknown training task")
	// ErrNoAllocation reports a deployment with neither a policy nor
	// explicit virtual-worker specs.
	ErrNoAllocation = core.ErrNoAllocation
	// ErrUnknownSchedule reports a pipeline schedule outside the registry
	// (see Schedules).
	ErrUnknownSchedule = core.ErrUnknownSchedule
	// ErrBadFaultPlan reports a WithFaults spec that does not parse or
	// validate (see the fault spec grammar in WithFaults).
	ErrBadFaultPlan = errors.New("hetpipe: bad fault plan")
	// ErrBadInterleave reports a WithInterleave degree that is negative or
	// that the selected schedule cannot run (only "interleaved" supports
	// V > 1).
	ErrBadInterleave = core.ErrBadInterleave
	// ErrBadTraffic reports a WithTraffic spec that does not parse or
	// validate (see the traffic spec grammar in WithTraffic).
	ErrBadTraffic = errors.New("hetpipe: bad traffic spec")
	// ErrNoTraffic reports a Serve call on a deployment that was resolved
	// without WithTraffic.
	ErrNoTraffic = errors.New("hetpipe: no traffic configured")
)

// settings is the option set behind New. Zero values mean "default". The
// options that name the deployment fill in spec, which core resolves — the
// same way for every entry point, so a default is applied exactly once
// (batch 0 means 32 in core.Spec.System and nowhere else: partitioning, the
// system model, and the gantt renderer cannot disagree on it).
type settings struct {
	spec        core.Spec
	minibatches int

	// Fault-tolerance knobs (both backends).
	faultSpec string
	ckptEvery int

	// Serving knob (Serve backend).
	traffic string

	// Live-backend (Train) knobs.
	task     string
	lr       float64
	seed     int64
	tcp      bool
	chunks   int
	ckptPath string
	resume   string
	stepTime time.Duration

	observer Observer
}

func defaultSettings() settings {
	return settings{task: "logreg", lr: 0.2, seed: 1}
}

// An Option configures a deployment under construction; pass them to New.
type Option func(*settings)

// WithModel selects the DNN by zoo key, e.g. "vgg19" or "resnet152" (see
// Models). A model is required; there is no default.
func WithModel(name string) Option { return func(s *settings) { s.spec.Model = name } }

// WithCluster selects a cluster-catalog shape (see Clusters). Empty means
// "paper", the Section 8.1 testbed.
func WithCluster(name string) Option { return func(s *settings) { s.spec.Cluster = name } }

// WithPolicy selects a Table 3 allocation policy: "NP", "ED", or "HD".
// Ignored when WithSpecs is also given.
func WithPolicy(name string) Option { return func(s *settings) { s.spec.Policy = name } }

// WithSpecs pins explicit virtual-worker GPU type strings (e.g. "VRQ",
// "VRQ"), overriding any policy.
func WithSpecs(specs ...string) Option {
	return func(s *settings) { s.spec.Specs = strings.Join(specs, ",") }
}

// WithBatch sets the per-minibatch sample count; 0 (the default) means 32.
func WithBatch(n int) Option { return func(s *settings) { s.spec.Batch = n } }

// WithNm fixes the number of concurrent minibatches per virtual worker;
// 0 (the default) picks the throughput-maximizing value automatically.
func WithNm(n int) Option { return func(s *settings) { s.spec.Nm = n } }

// WithD sets the WSP clock-distance bound (0 = BSP-like waves).
func WithD(d int) Option { return func(s *settings) { s.spec.D = d } }

// WithLocalPlacement co-locates parameter shards with pipeline stages (the
// paper's ED-local policy). Requires ED-style stage/node alignment.
func WithLocalPlacement(on bool) Option { return func(s *settings) { s.spec.Local = on } }

// WithMinibatchesPerVW sizes each run; 0 (the default) picks a D-aware
// default of at least 24 waves per virtual worker, and New rejects a negative
// n.
func WithMinibatchesPerVW(n int) Option { return func(s *settings) { s.minibatches = n } }

// WithSchedule selects the pipeline execution discipline every virtual
// worker runs (see Schedules): "hetpipe-fifo" (the paper's Section 4
// behavior, the default), "gpipe" (fill-drain waves), "1f1b" (strict
// one-forward-one-backward, the smallest activation footprint),
// "hetpipe-overlap" (FIFO with communication/computation overlap, the
// Section 9 improvement), "interleaved" (Megatron-LM virtual stages: each
// GPU hosts several model chunks, shrinking the pipeline bubble by the
// WithInterleave degree), or "2bw" (PipeDream-2BW: 1F1B timing with
// double-buffered weight versions instead of activation-sized stashes). The
// schedule shapes the partitioner's per-stage memory model — a
// memory-constrained worker can admit a larger Nm under "1f1b" — as well as
// the simulated task graph and the Gantt rendering.
func WithSchedule(name string) Option { return func(s *settings) { s.spec.Schedule = name } }

// WithInterleave sets the interleave degree V: the partitioner cuts each
// virtual worker's model into k*V chunks and assigns GPU g the chunks g,
// g+k, ..., g+(V-1)k, so the pipeline fill/drain bubble shrinks by V.
// 0 (the default) and 1 keep the classic one-contiguous-range-per-GPU
// placement; V > 1 requires the "interleaved" schedule (New reports
// ErrBadInterleave otherwise).
func WithInterleave(v int) Option { return func(s *settings) { s.spec.Interleave = v } }

// WithObserver streams run events (minibatch completions, wave pushes, pulls,
// global-clock advances, serving arrivals/admissions/replies, fault
// injections and recoveries) to o while Simulate, Train, or Serve is in
// flight — the hook progress bars and metrics exporters attach to. All
// backends call the observer from a serialized context, so it needs no
// locking of its own.
func WithObserver(o Observer) Option { return func(s *settings) { s.observer = o } }

// WithTraffic attaches an inference-serving traffic spec and enables the
// Serve backend. The grammar is colon-separated, in the style of WithFaults:
//
//	poisson:r120:n2000             open loop: 120 req/s Poisson, 2000 requests
//	diurnal:r120:a0.5:p60:n2000    sinusoidal 60..180 req/s, period 60 s
//	bursty:r60:x4:on2:off8:n2000   60 req/s with 4x bursts, 2 s on / 8 s off
//	closed:u64:t0.05:n2000         closed loop: 64 users, 50 ms mean think
//
// Every kind accepts optional trailing fields seed<k> (default seed1) and
// crit<f> (the fraction of requests marked latency-critical, which the
// serving router steers to fast replicas), in either order and each at most
// once, e.g. "poisson:r120:n2000:seed7:crit0.2". Traffic generation is fully
// deterministic: the same spec reproduces a byte-identical request trace and
// latency summary on every Serve run. A spec that does not parse or validate
// is reported by New through ErrBadTraffic.
func WithTraffic(spec string) Option { return func(s *settings) { s.traffic = spec } }

// WithFaults attaches a deterministic fault-injection plan, written in the
// compact spec language of internal/fault. Comma-separated clauses:
//
//	slow:w0:x2              worker 0 computes 2x slower for the whole run
//	slow:w1:x1.5:mb8-24     worker 1 is 1.5x slower for minibatches 8..24
//	crash:w2:mb40           worker 2 crashes when about to start minibatch 40
//	crash:w2:mb40:down2.5   ... and stays down 2.5 seconds
//	stall:s0:c3:0.05        shard 0 stalls the clock-3 advance by 50 ms
//	link:w3:x4              worker 3's PS transfers take 4x longer
//	rand:0.5:seed7          each worker straggles with probability 0.5
//
// A clause's optional fields (mb, down, seed, max) may come in any order,
// and each at most once.
//
// Simulate applies the plan to the virtual timeline (slowdowns scale stage
// timings, crashes charge downtime plus checkpoint replay); Train executes
// it for real (timing faults become wall-clock sleeps, crashes kill and
// recover the worker goroutine from its last checkpoint). WSP numerics are
// timing-independent, so a fault plan never changes the final weights — with
// an empty spec both backends are bit-identical to a fault-free run. A spec
// that does not parse is reported by New through ErrBadFaultPlan.
func WithFaults(spec string) Option { return func(s *settings) { s.faultSpec = spec } }

// WithCheckpoint takes a fault-tolerance checkpoint every `everyWaves` pushed
// waves (0, the default, disables periodic checkpoints). Train checkpoints
// each worker's local state at that cadence — the state a crashed worker is
// recovered from; with no checkpoint it replays from minibatch 1 — and, with
// WithCheckpointPath, persists consistent shard-server checkpoints too.
// Simulate uses the cadence to price a crash's replay time.
func WithCheckpoint(everyWaves int) Option { return func(s *settings) { s.ckptEvery = everyWaves } }

// WithCheckpointPath makes Train persist atomic, clock-cut checkpoints of the
// parameter-server shards to the given file: at every WithCheckpoint cadence
// point and once more at the end of a successful run. The file is always a
// consistent, resumable prefix of the run (see WithResumeFrom).
func WithCheckpointPath(path string) Option { return func(s *settings) { s.ckptPath = path } }

// WithStepTime makes Train emulate per-minibatch compute time as a
// wall-clock sleep of d per minibatch. Straggler slowdowns multiply it and
// link degradations scale the per-transfer share, so timing faults become
// visible on the wall clock; 0 (the default) runs as fast as possible, in
// which case slowdown and link faults still fire their observer events but
// cost no time (crash downtime and shard stalls always sleep for real).
func WithStepTime(d time.Duration) Option { return func(s *settings) { s.stepTime = d } }

// WithResumeFrom makes Train restore the parameter-server shards from a
// checkpoint file written by WithCheckpointPath before training. Workers
// deterministically replay their minibatch streams, re-pushing only the
// waves the checkpoint does not hold, so the resumed run's final weights are
// bit-identical to an uninterrupted run of the same budget.
func WithResumeFrom(path string) Option { return func(s *settings) { s.resume = path } }

// WithTrainTask selects the live backend's numeric training task: "logreg"
// (convex, the default) or "mlp" (non-convex).
func WithTrainTask(name string) Option { return func(s *settings) { s.task = name } }

// WithLearningRate sets the live backend's SGD step size (default 0.2).
func WithLearningRate(lr float64) Option { return func(s *settings) { s.lr = lr } }

// WithSeed seeds the live backend's task data (default 1).
func WithSeed(seed int64) Option { return func(s *settings) { s.seed = seed } }

// WithTCP makes Train reach the parameter-server shards over real loopback
// sockets instead of in-process calls.
func WithTCP(on bool) Option { return func(s *settings) { s.tcp = on } }

// WithChunks sets how many named parameter shards Train spreads over the
// shard servers; 0 (the default) picks 4 per server.
func WithChunks(n int) Option { return func(s *settings) { s.chunks = n } }
