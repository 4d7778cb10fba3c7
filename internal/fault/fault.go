// Package fault defines deterministic, seedable fault-injection plans for
// HetPipe runs: worker slowdowns (stragglers), worker crashes at a given
// minibatch, parameter-server shard stalls, and link degradations.
//
// A Plan is pure data, and a Cursor is the one interpreter of it: each of the
// three execution backends steps one Cursor per worker, which decides what a
// clause costs at a minibatch, a transfer or a clock, and when it is reported.
// The backends differ only in what they do with the answer: the
// discrete-event co-simulation (internal/core over internal/sim) applies
// slowdowns and crash downtime to stage timings and stall/link terms to the
// parameter-synchronization transfer times; the live runtime
// (internal/cluster) applies timing faults as wall-clock sleeps and executes
// crashes for real — killing the worker goroutine and recovering it from its
// last checkpoint; serving (internal/serve) applies slowdowns, links and crash
// downtime to its replicas' forward passes and leaves stalls inert. Because
// WSP's numeric trajectory is timing-free by construction (train.Worker is the
// whole of it), a fault plan degrades throughput and exercises recovery
// without ever changing the final weights — the property the sim-vs-live
// conformance harness pins down.
//
// Plans are written either as Go literals or in a compact spec language made
// for CLI flags (see Parse):
//
//	slow:w0:x2              worker 0 runs 2x slower for the whole run
//	slow:w1:x1.5:mb8-24     worker 1 runs 1.5x slower for minibatches 8..24
//	crash:w2:mb40           worker 2 crashes when about to start minibatch 40
//	crash:w2:mb40:down2.5   ... and stays down for 2.5 (virtual) seconds
//	stall:s0:c3:0.05        shard 0 stalls the clock-3 advance by 50 ms
//	link:w3:x4              worker 3's PS push/pull transfers take 4x longer
//	rand:0.5:seed7          each worker straggles with probability 0.5
//
// Clauses are comma-separated: "slow:w0:x2,crash:w1:mb40". The bracketed
// fields of a clause (slow:w<N>:x<factor>[:mb<from>-<to>],
// crash:w<N>:mb<M>[:down<seconds>], rand:<rate>[:seed<N>][:max<factor>]) are
// optional, may come in any order, and may each appear only once; every kind
// is one row of internal/clause. Randomized plans
// (the rand clause, or Plan.Rand) are expanded by Materialize with a seeded
// generator, so the same spec always yields the same concrete plan.
package fault

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"hetpipe/internal/clause"
)

// DefaultCrashDowntime is the downtime charged for a Crash whose Downtime
// field is zero, in seconds.
const DefaultCrashDowntime = 1.0

// Slowdown makes one worker's compute slower by a constant factor over a
// minibatch range — the whimpy-straggler fault. Cursor.Task gives every
// backend the same factor per stage task; what a task is still differs: the
// co-simulation's hook also stretches an overlapped transfer
// (pipeline.Link) by the compute factor, serving's leaves it to the link.
// Making them agree would change the co-simulation's timings.
type Slowdown struct {
	// Worker is the 0-based virtual-worker index.
	Worker int
	// Factor multiplies the worker's per-stage compute times; must be >= 1.
	Factor float64
	// FromMinibatch and ToMinibatch bound the affected 1-based minibatch
	// range, inclusive. Zero FromMinibatch means 1; zero ToMinibatch means
	// the rest of the run.
	FromMinibatch, ToMinibatch int
}

// Crash kills one worker at a minibatch boundary. The crash fires when the
// worker is about to start AtMinibatch, so a push is never torn mid-fan-out.
// The simulator charges Downtime plus the checkpoint-replay time to the
// worker's timeline; the live runtime loses the worker's local state and
// recovers it from the last checkpoint.
type Crash struct {
	// Worker is the 0-based virtual-worker index.
	Worker int
	// AtMinibatch is the 1-based minibatch whose start triggers the crash.
	AtMinibatch int
	// Downtime is how long the worker is down, in seconds; 0 means
	// DefaultCrashDowntime.
	Downtime float64
}

// PSStall models a parameter-server shard going unresponsive around one
// global-clock advance: the advance to AtClock is delayed by Delay seconds
// (every wave AtClock-1 push answered by the stalled shard is held up, which
// holds up every D-bound pull gated on that clock).
type PSStall struct {
	// Shard is the 0-based shard-server index. It is descriptive — a label
	// for which shard the scenario blames. Because WSP's global clock is the
	// minimum across all shards, one stalled shard delays every worker
	// identically, so both backends treat the stall as cluster-wide and the
	// index does not change the outcome.
	Shard int
	// AtClock is the global-clock value whose advance the stall delays.
	AtClock int
	// Delay is the added latency in seconds; must be > 0.
	Delay float64
}

// LinkDegrade multiplies one worker's parameter-synchronization transfer
// times (push and pull) — a degraded NIC or oversubscribed link.
type LinkDegrade struct {
	// Worker is the 0-based virtual-worker index.
	Worker int
	// Factor multiplies the worker's push/pull transfer times; must be >= 1.
	Factor float64
}

// RandSpec declares a randomized straggler population: each worker
// independently straggles with probability Rate, with a slowdown factor drawn
// uniformly from [1.5, MaxFactor]. Expansion (Materialize) is a pure function
// of (Seed, worker count), so randomized plans are reproducible.
type RandSpec struct {
	// Rate is the per-worker straggler probability in [0, 1].
	Rate float64
	// Seed drives the generator; 0 means 1.
	Seed int64
	// MaxFactor bounds the drawn slowdown factor; 0 means 3.
	MaxFactor float64
}

// Plan is one deterministic fault-injection plan. The zero value (and nil)
// is the empty plan: a run under it is bit-identical to a fault-free run.
type Plan struct {
	Slowdowns []Slowdown
	Crashes   []Crash
	Stalls    []PSStall
	Links     []LinkDegrade
	// Rand, when non-nil, adds a randomized straggler population at
	// Materialize time.
	Rand *RandSpec

	// Materialize's marks: the worker count the plan was materialized for (0:
	// it was not), and the labels its cursors report, formatted once.
	workers int
	labels  map[label]string
}

// label is one report a cursor gives, by what its text shows: the clause
// kind, the worker (a stall's clock), a crash's minibatch, and a factor (a
// stall's delay).
type label struct {
	kind  byte // 's'low, 'c'rash, 'l'ink or s't'all
	n, mb int
	x     float64
}

// String is the label the backends' observer events name a fault activation
// by (obs.Event.Fault). The slow, crash and link labels are the clause's own
// spec form, printed through its kind's row; a stall's label names the clock
// advance it held up and its total delay, not one shard's clause.
func (l label) String() string {
	switch l.kind {
	case 's':
		return (&Slowdown{Worker: l.n, Factor: l.x}).row().String()
	case 'c':
		return (&Crash{Worker: l.n, AtMinibatch: l.mb}).row().String()
	case 'l':
		return (&LinkDegrade{Worker: l.n, Factor: l.x}).row().String()
	}
	return fmt.Sprintf("stall:c%d:%g", l.n, l.x)
}

// text is l's text: the one Materialize formatted when it foresaw l, which it
// does for every report of cursors asked about minibatches in ascending order.
func (p *Plan) text(l label) string {
	if s, ok := p.labels[l]; ok {
		return s
	}
	return l.String()
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil ||
		(len(p.Slowdowns) == 0 && len(p.Crashes) == 0 &&
			len(p.Stalls) == 0 && len(p.Links) == 0 && p.Rand == nil)
}

// maxReal bounds every real a plan carries, and the product of the factors
// that compound on one worker: beyond it a float64 clock in seconds cannot
// resolve a stage task any more, and a few such factors multiplied overflow
// it to +Inf.
const maxReal = 1e9

// checkReal rejects a real field no run can use. strconv.ParseFloat parses
// NaN and Inf, a NaN passes every </> range check below (s.Factor < 1 is
// false for it), and +Inf passes all but the upper bound; a NaN slowdown
// steps the simulator's clock backwards and an infinite one reports NaN
// throughput.
func checkReal(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("fault: %s must be finite, got %g", what, v)
	}
	if v > maxReal {
		return fmt.Errorf("fault: %s %g above %g", what, v, maxReal)
	}
	return nil
}

// validate checks value ranges that do not depend on the worker count: every
// real must be finite and at most 1e9 — as must the slowdown factors naming
// one worker multiplied together, and its link factors — and within its own
// range. Materialize additionally checks worker indices against a concrete
// run.
func (p *Plan) validate() error {
	if p == nil {
		return nil
	}
	slow, link := make(map[int]float64), make(map[int]float64)
	for _, s := range p.Slowdowns {
		if s.Worker < 0 {
			return fmt.Errorf("fault: slowdown worker %d negative", s.Worker)
		}
		if err := checkReal("slowdown factor", s.Factor); err != nil {
			return err
		}
		if s.Factor < 1 {
			return fmt.Errorf("fault: slowdown factor %g must be >= 1", s.Factor)
		}
		if s.FromMinibatch < 0 || s.ToMinibatch < 0 {
			return fmt.Errorf("fault: slowdown minibatch range [%d,%d] negative", s.FromMinibatch, s.ToMinibatch)
		}
		if s.ToMinibatch != 0 && s.ToMinibatch < s.FromMinibatch {
			return fmt.Errorf("fault: slowdown minibatch range [%d,%d] inverted", s.FromMinibatch, s.ToMinibatch)
		}
		if slow[s.Worker] = max(slow[s.Worker], 1) * s.Factor; slow[s.Worker] > maxReal {
			return fmt.Errorf("fault: worker %d's slowdown factors multiply to more than %g", s.Worker, maxReal)
		}
	}
	seen := make(map[int]bool)
	for _, c := range p.Crashes {
		if c.Worker < 0 {
			return fmt.Errorf("fault: crash worker %d negative", c.Worker)
		}
		if c.AtMinibatch < 1 {
			return fmt.Errorf("fault: crash minibatch %d must be >= 1", c.AtMinibatch)
		}
		if err := checkReal("crash downtime", c.Downtime); err != nil {
			return err
		}
		if c.Downtime < 0 {
			return fmt.Errorf("fault: crash downtime %g negative", c.Downtime)
		}
		if seen[c.Worker] {
			return fmt.Errorf("fault: worker %d crashes more than once", c.Worker)
		}
		seen[c.Worker] = true
	}
	for _, s := range p.Stalls {
		if s.Shard < 0 {
			return fmt.Errorf("fault: stall shard %d negative", s.Shard)
		}
		if s.AtClock < 1 {
			return fmt.Errorf("fault: stall clock %d must be >= 1", s.AtClock)
		}
		if err := checkReal("stall delay", s.Delay); err != nil {
			return err
		}
		if s.Delay <= 0 {
			return fmt.Errorf("fault: stall delay %g must be > 0", s.Delay)
		}
	}
	for _, l := range p.Links {
		if l.Worker < 0 {
			return fmt.Errorf("fault: link worker %d negative", l.Worker)
		}
		if err := checkReal("link factor", l.Factor); err != nil {
			return err
		}
		if l.Factor < 1 {
			return fmt.Errorf("fault: link factor %g must be >= 1", l.Factor)
		}
		if link[l.Worker] = max(link[l.Worker], 1) * l.Factor; link[l.Worker] > maxReal {
			return fmt.Errorf("fault: worker %d's link factors multiply to more than %g", l.Worker, maxReal)
		}
	}
	if r := p.Rand; r != nil {
		if err := checkReal("rand rate", r.Rate); err != nil {
			return err
		}
		if r.Rate < 0 || r.Rate > 1 {
			return fmt.Errorf("fault: rand rate %g outside [0,1]", r.Rate)
		}
		if err := checkReal("rand max factor", r.MaxFactor); err != nil {
			return err
		}
		if r.MaxFactor != 0 && r.MaxFactor < 1.5 {
			return fmt.Errorf("fault: rand max factor %g must be >= 1.5", r.MaxFactor)
		}
	}
	return nil
}

// Materialize expands the plan for a concrete run of `workers` virtual
// workers: the Rand clause is expanded into per-worker slowdowns with a
// seeded generator, and every worker index is range-checked. The receiver is
// not modified; the result has a nil Rand. Materializing an empty plan (nil
// included) returns nil, the empty plan.
//
// The result is read-only and also formats its cursors' reports up front, so
// that a run stepping them formats nothing; materializing it again for the
// same worker count returns it as it is. A caller that runs one plan many
// times (a sweep) materializes it once.
func (p *Plan) Materialize(workers int) (*Plan, error) {
	if workers < 1 {
		return nil, fmt.Errorf("fault: need at least one worker, got %d", workers)
	}
	if p != nil && p.workers == workers {
		return p, nil
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.Empty() {
		return nil, nil
	}
	out := &Plan{workers: workers, labels: make(map[label]string)}
	out.Slowdowns = append(out.Slowdowns, p.Slowdowns...)
	out.Crashes = append(out.Crashes, p.Crashes...)
	out.Stalls = append(out.Stalls, p.Stalls...)
	out.Links = append(out.Links, p.Links...)
	if r := p.Rand; r != nil {
		seed := r.Seed
		if seed == 0 {
			seed = 1
		}
		maxf := r.MaxFactor
		if maxf == 0 {
			maxf = 3
		}
		rng := rand.New(rand.NewSource(seed))
		for w := 0; w < workers; w++ {
			// Two draws per worker regardless of the straggle outcome, so a
			// worker's fate is independent of its predecessors' factors.
			hit := rng.Float64() < r.Rate
			f := 1.5 + (maxf-1.5)*rng.Float64()
			if hit {
				out.Slowdowns = append(out.Slowdowns, Slowdown{Worker: w, Factor: f})
			}
		}
	}
	// Each clause also formats the report its cursors give when asked about
	// minibatches in ascending order: a slowdown's at its first minibatch.
	for _, s := range out.Slowdowns {
		if s.Worker >= workers {
			return nil, fmt.Errorf("fault: slowdown worker %d out of range [0,%d)", s.Worker, workers)
		}
		out.format(label{kind: 's', n: s.Worker, x: out.ComputeScale(s.Worker, max(s.FromMinibatch, 1))})
	}
	for _, c := range out.Crashes {
		if c.Worker >= workers {
			return nil, fmt.Errorf("fault: crash worker %d out of range [0,%d)", c.Worker, workers)
		}
		out.format(label{kind: 'c', n: c.Worker, mb: c.AtMinibatch})
	}
	for _, l := range out.Links {
		if l.Worker >= workers {
			return nil, fmt.Errorf("fault: link worker %d out of range [0,%d)", l.Worker, workers)
		}
		out.format(label{kind: 'l', n: l.Worker, x: out.LinkScale(l.Worker)})
	}
	for _, s := range out.Stalls {
		out.format(label{kind: 't', n: s.AtClock, x: out.StallDelay(s.AtClock)})
	}
	return out, nil
}

// format keeps l's text for the plan's cursors to report.
func (p *Plan) format(l label) { p.labels[l] = l.String() }

// ComputeScale reports the compute-time multiplier for worker w's minibatch
// mb (1-based): the product of every slowdown covering it, 1 when none does.
func (p *Plan) ComputeScale(w, mb int) float64 {
	if p == nil {
		return 1
	}
	scale := 1.0
	for _, s := range p.Slowdowns {
		if s.Worker != w {
			continue
		}
		from := s.FromMinibatch
		if from == 0 {
			from = 1
		}
		if mb < from {
			continue
		}
		if s.ToMinibatch != 0 && mb > s.ToMinibatch {
			continue
		}
		scale *= s.Factor
	}
	return scale
}

// LinkScale reports the parameter-synchronization transfer-time multiplier
// for worker w: the product of its link degradations, 1 when none apply.
func (p *Plan) LinkScale(w int) float64 {
	if p == nil {
		return 1
	}
	scale := 1.0
	for _, l := range p.Links {
		if l.Worker == w {
			scale *= l.Factor
		}
	}
	return scale
}

// CrashFor reports worker w's crash, or nil. Validate guarantees at most one
// crash per worker.
func (p *Plan) CrashFor(w int) *Crash {
	if p == nil {
		return nil
	}
	for i := range p.Crashes {
		if p.Crashes[i].Worker == w {
			return &p.Crashes[i]
		}
	}
	return nil
}

// Touches reports whether any worker-specific clause — a slowdown, a crash or
// a link degradation — names worker w. Shard stalls never do: they delay the
// whole cluster alike. Ask a materialized plan; a pending Rand clause has not
// chosen its stragglers yet. Untouched workers differ from each other only in
// what they were before the plan, which is what lets the simulator step
// identical untouched workers as one (see internal/core).
func (p *Plan) Touches(w int) bool {
	if p == nil {
		return false
	}
	for _, s := range p.Slowdowns {
		if s.Worker == w {
			return true
		}
	}
	for _, l := range p.Links {
		if l.Worker == w {
			return true
		}
	}
	return p.CrashFor(w) != nil
}

// StallDelay reports the total delay injected before the global clock may
// advance to `clock`, summed over all shard stalls targeting it. The shard
// index does not change the delay a worker observes — the global clock is
// the minimum across shards, so the slowest shard's stall is the one that
// counts (see PSStall.Shard).
func (p *Plan) StallDelay(clock int) float64 {
	if p == nil {
		return 0
	}
	total := 0.0
	for _, s := range p.Stalls {
		if s.AtClock == clock {
			total += s.Delay
		}
	}
	return total
}

// Cursor is a materialized plan's one-shot state for one worker, and the
// only place a plan is interpreted: each method answers one decision — a
// scale, a charge, a delay — together with the clause label to report for
// it, which is non-empty exactly once per run however often a crash replay
// asks again. A backend holds its cursors by value wherever a worker's state
// outlives an attempt; the cluster's cursor (worker -1) answers the stalls.
// A Cursor is not safe for concurrent use.
type Cursor struct {
	p       *Plan
	w       int
	crashAt int     // the worker's crash minibatch; 0 = none
	down    float64 // its downtime

	slowDone, linkDone, crashDone, charged, recovered bool

	stalled map[int]bool // the stalled clocks reported
}

// Cursor returns worker w's cursor over the materialized plan p; w = -1
// gives the cluster's, which no worker clause names.
func (p *Plan) Cursor(w int) Cursor {
	c := Cursor{p: p, w: w}
	if cr := p.CrashFor(w); cr != nil {
		c.crashAt, c.down = cr.AtMinibatch, cmp.Or(cr.Downtime, DefaultCrashDowntime)
	}
	return c
}

// once reports whether a one-shot decision falls now: it is due and was not
// taken before — and from now on it was.
func once(done *bool, due bool) bool {
	if !due || *done {
		return false
	}
	*done = true
	return true
}

// Slow is the worker's compute scale at minibatch mb (see ComputeScale), and
// the slowdown's report at the first minibatch asked whose scale exceeds 1.
func (c *Cursor) Slow(mb int) (scale float64, report string) {
	scale = c.p.ComputeScale(c.w, mb)
	if once(&c.slowDone, scale > 1) {
		report = c.p.text(label{kind: 's', n: c.w, x: scale})
	}
	return scale, report
}

// Task is the cost of stage s's task of minibatch mb: the compute scale, and
// the crash charge — the downtime, non-zero on the crash minibatch's first
// stage-0 task asked and never again.
//
//hetlint:hotpath
func (c *Cursor) Task(mb, s int) (scale, charge float64) {
	if once(&c.charged, s == 0 && mb == c.crashAt) {
		charge = c.down
	}
	return c.p.ComputeScale(c.w, mb), charge
}

// Link is the worker's parameter-synchronization transfer scale (see
// LinkScale), and a degraded link's report at its first use.
func (c *Cursor) Link() (scale float64, report string) {
	scale = c.p.LinkScale(c.w)
	if once(&c.linkDone, scale > 1) {
		report = c.p.text(label{kind: 'l', n: c.w, x: scale})
	}
	return scale, report
}

// Crash is the worker's crash report, when mb is its crash minibatch and the
// crash has not fired yet: a replay through mb passes it.
func (c *Cursor) Crash(mb int) string { return c.crashReport(&c.crashDone, mb) }

// Recover is the recovery report of the worker's crash, when mb is its crash
// minibatch: the crash's label, once.
func (c *Cursor) Recover(mb int) string { return c.crashReport(&c.recovered, mb) }

func (c *Cursor) crashReport(done *bool, mb int) string {
	if !once(done, mb == c.crashAt) {
		return ""
	}
	return c.p.text(label{kind: 'c', n: c.w, mb: mb})
}

// Quiet reports whether Slow and Crash would report nothing at minibatch mb:
// no crash is still ahead there, and no slowdown would be reported first.
func (c *Cursor) Quiet(mb int) bool {
	return (mb != c.crashAt || c.crashDone) && (c.slowDone || c.p.ComputeScale(c.w, mb) <= 1)
}

// Stall is the delay held against the global clock's advance to clock (see
// StallDelay), and its report the first time a stalled clock is asked.
func (c *Cursor) Stall(clock int) (delay float64, report string) {
	delay = c.p.StallDelay(clock)
	if delay > 0 && !c.stalled[clock] {
		if c.stalled == nil {
			c.stalled = make(map[int]bool)
		}
		c.stalled[clock] = true
		report = c.p.text(label{kind: 't', n: clock, x: delay})
	}
	return delay, report
}

// The clause rows of the spec language, one per kind: Parse reads a clause
// through its kind's row, and String and the slow, crash and link report
// labels print through it.

func (s *Slowdown) row() clause.Row {
	return clause.Of("slow", clause.Num("w<N>", &s.Worker), clause.Num("x<factor>", &s.Factor),
		clause.Range("mb<from>-<to>", &s.FromMinibatch, &s.ToMinibatch).Or(0))
}

func (c *Crash) row() clause.Row {
	return clause.Of("crash", clause.Num("w<N>", &c.Worker), clause.Num("mb<M>", &c.AtMinibatch),
		clause.Num("down<seconds>", &c.Downtime).Or(0))
}

func (s *PSStall) row() clause.Row {
	return clause.Of("stall", clause.Num("s<shard>", &s.Shard), clause.Num("c<clock>", &s.AtClock),
		clause.Num("<seconds>", &s.Delay))
}

func (l *LinkDegrade) row() clause.Row {
	return clause.Of("link", clause.Num("w<N>", &l.Worker), clause.Num("x<factor>", &l.Factor))
}

func (r *RandSpec) row() clause.Row {
	return clause.Of("rand", clause.Num("<rate>", &r.Rate),
		clause.Num("seed<N>", &r.Seed).Or(0), clause.Num("max<factor>", &r.MaxFactor).Or(0))
}

// Usage is the grammar of each clause kind, one line per kind in the order
// Parse names them, as its row prints it — the text a malformed clause's
// error quotes.
func Usage() []string {
	return []string{
		new(Slowdown).row().Usage(),
		new(Crash).row().Usage(),
		new(PSStall).row().Usage(),
		new(LinkDegrade).row().Usage(),
		new(RandSpec).row().Usage(),
	}
}

// String renders the plan in the Parse spec language, clauses in a canonical
// order. An empty plan renders as "".
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	clauses := rows(nil, p.Slowdowns, (*Slowdown).row)
	clauses = rows(clauses, p.Crashes, (*Crash).row)
	clauses = rows(clauses, p.Stalls, (*PSStall).row)
	clauses = rows(clauses, p.Links, (*LinkDegrade).row)
	if p.Rand != nil {
		clauses = append(clauses, p.Rand.row().String())
	}
	sort.Strings(clauses)
	return strings.Join(clauses, ",")
}

// rows appends each clause of list, printed through its row, to out.
func rows[T any](out []string, list []T, row func(*T) clause.Row) []string {
	for i := range list {
		out = append(out, row(&list[i]).String())
	}
	return out
}

// Parse builds a plan from the compact spec language (see the package
// comment for the grammar). An empty or all-whitespace spec yields the empty
// plan. The result is validated.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, text := range strings.Split(spec, ",") {
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		parts := strings.Split(text, ":")
		fields := parts[1:]
		var err error
		switch strings.ToLower(parts[0]) {
		case "slow":
			p.Slowdowns, err = parse(p.Slowdowns, (*Slowdown).row, fields)
		case "crash":
			p.Crashes, err = parse(p.Crashes, (*Crash).row, fields)
		case "stall":
			p.Stalls, err = parse(p.Stalls, (*PSStall).row, fields)
		case "link":
			p.Links, err = parse(p.Links, (*LinkDegrade).row, fields)
		case "rand":
			if p.Rand != nil {
				err = fmt.Errorf("at most one rand clause per plan")
				break
			}
			p.Rand = new(RandSpec)
			err = p.Rand.row().Parse(fields)
		default:
			err = fmt.Errorf("unknown fault kind %q (want slow, crash, stall, link, or rand)", parts[0])
		}
		if err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", text, err)
		}
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parse appends the clause its row reads from fields to list.
func parse[T any](list []T, row func(*T) clause.Row, fields []string) ([]T, error) {
	list = append(list, *new(T))
	return list, row(&list[len(list)-1]).Parse(fields)
}
