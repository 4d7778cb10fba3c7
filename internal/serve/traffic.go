// Package serve runs a resolved HetPipe deployment as an inference-serving
// system: seedable open- and closed-loop request generators stand in for
// heavy user traffic, a continuous-batching admission layer coalesces queued
// requests into forward-only microbatches, and a router spreads them across
// the deployment's heterogeneous virtual workers, preferring fast replicas
// for latency-critical requests.
//
// The serving plane reuses the training substrate wholesale: the virtual
// workers' partition plans supply the per-virtual-stage forward and transfer
// times, the pipeline schedule (internal/sched) bounds how many microbatches
// a replica keeps in flight through InFlightCap and decides whether receives
// overlap with compute (OverlapRecv), the pooled event engine (internal/sim)
// drives the run in virtual time, and fault plans (internal/fault) shape the
// timing deterministically. Everything is seed-deterministic: the same
// traffic spec reproduces a byte-identical request trace and latency summary
// on every run, on a fresh or warm engine — the property the serving test
// wall pins.
package serve

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hetpipe/internal/clause"
)

// Traffic generator kinds, as accepted by ParseTraffic and carried in
// Traffic.Kind.
const (
	// kindPoisson is an open-loop homogeneous Poisson arrival process.
	kindPoisson = "poisson"
	// kindDiurnal is an open-loop inhomogeneous Poisson process whose rate
	// follows a sinusoidal day/night cycle — the load shape of a
	// user-facing service.
	kindDiurnal = "diurnal"
	// kindBursty is an open-loop on/off process replaying a bursty trace:
	// the base rate multiplied by a burst factor during "on" windows.
	kindBursty = "bursty"
	// kindClosed is a closed-loop generator: a fixed population of users,
	// each thinking an exponential time between its reply and its next
	// request, so offered load self-throttles with latency.
	kindClosed = "closed"
)

// Traffic is a parsed, validated traffic specification. Build one with
// ParseTraffic; the zero value is not runnable.
type Traffic struct {
	// Kind is one of the Kind* generator names.
	Kind string
	// Rate is the open-loop base arrival rate in requests/second.
	Rate float64
	// Amp is the diurnal modulation amplitude in [0, 1): the rate swings
	// between Rate*(1-Amp) and Rate*(1+Amp).
	Amp float64
	// Period is the diurnal cycle length in seconds.
	Period float64
	// Burst is the bursty rate multiplier (> 1) applied during "on" windows.
	Burst float64
	// On and Off are the bursty window lengths in seconds.
	On, Off float64
	// Users is the closed-loop population size.
	Users int
	// Think is the closed-loop mean think time in seconds.
	Think float64
	// N is the total request budget of the run.
	N int
	// Seed seeds every random draw the generator makes (default 1).
	Seed int64
	// Crit is the fraction of requests marked latency-critical in [0, 1];
	// the router prefers fast replicas for them.
	Crit float64
}

// Request is one generated request: an arrival time and a traffic class.
type Request struct {
	// At is the arrival time in seconds from run start.
	At float64
	// Critical marks the request latency-critical for routing.
	Critical bool
}

// ParseTraffic parses a traffic spec. The grammar is colon-separated, in the
// style of the fault spec language:
//
//	poisson:r120:n2000             120 req/s Poisson, 2000 requests
//	diurnal:r120:a0.5:p60:n2000    sinusoidal 60..180 req/s, period 60 s
//	bursty:r60:x4:on2:off8:n2000   60 req/s, 4x bursts 2 s on / 8 s off
//	closed:u64:t0.05:n2000         64 users, 50 ms mean think time
//
// Every kind accepts two optional trailing fields, in either order and each
// at most once: seed<k> (default seed1) and crit<f> (fraction of
// latency-critical requests, default 0), e.g.
// "poisson:r120:n2000:seed7:crit0.2". The parsed spec is validated; the
// canonical form round-trips through String.
func ParseTraffic(spec string) (*Traffic, error) {
	fields := strings.Split(strings.TrimSpace(spec), ":")
	if fields[0] == "" {
		return nil, fmt.Errorf("serve: empty traffic spec")
	}
	t := &Traffic{Kind: fields[0]}
	row, ok := t.row()
	if !ok {
		return nil, fmt.Errorf("serve: unknown traffic kind %q (want %s, %s, %s, or %s)",
			t.Kind, kindPoisson, kindDiurnal, kindBursty, kindClosed)
	}
	if err := row.Parse(fields[1:]); err != nil {
		return nil, fmt.Errorf("serve: traffic spec %q: %w", spec, err)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// row is the clause row of t's kind, bound to t: the kind's own fields, then
// the seed and crit every kind takes. It is false for an unknown kind, whose
// row has only those two.
func (t *Traffic) row() (clause.Row, bool) {
	f := make([]clause.Field, 0, 7)
	rate, n := clause.Num("r<rate>", &t.Rate), clause.Num("n<count>", &t.N)
	known := true
	switch t.Kind {
	case kindPoisson:
		f = append(f, rate, n)
	case kindDiurnal:
		f = append(f, rate, clause.Num("a<amp>", &t.Amp), clause.Num("p<period>", &t.Period), n)
	case kindBursty:
		f = append(f, rate, clause.Num("x<factor>", &t.Burst), clause.Num("on<sec>", &t.On), clause.Num("off<sec>", &t.Off), n)
	case kindClosed:
		f = append(f, clause.Num("u<users>", &t.Users), clause.Num("t<think>", &t.Think), n)
	default:
		known = false
	}
	f = append(f, clause.Num("seed<k>", &t.Seed).Or(1), clause.Num("crit<f>", &t.Crit).Or(0))
	return clause.Of(t.Kind, f...), known
}

// TrafficUsage is the grammar of each traffic kind, one line per kind, as
// its row prints it — the text a malformed spec's error quotes.
func TrafficUsage() []string {
	var out []string
	for _, kind := range []string{kindPoisson, kindDiurnal, kindBursty, kindClosed} {
		row, _ := (&Traffic{Kind: kind}).row()
		out = append(out, row.Usage())
	}
	return out
}

// validate checks the spec's numeric ranges. Every real field must be finite
// (strconv.ParseFloat parses NaN and Inf, and a NaN passes any </> range
// check), and every rate, factor and time must, when nonzero, lie within
// [1e-9, 1e9]: outside that window the generators' float64 arithmetic leaves
// the finite range — arrival times overflow to +Inf, or 2*pi*s/period does
// and the NaN rate it yields is one thinning never accepts.
func (t *Traffic) validate() error {
	if t.N <= 0 {
		return fmt.Errorf("serve: traffic needs a positive request count, got n%d", t.N)
	}
	for _, f := range [...]struct {
		name     string
		v        float64
		windowed bool
	}{
		{"rate", t.Rate, true}, {"amplitude", t.Amp, false}, {"period", t.Period, true},
		{"burst factor", t.Burst, true}, {"on window", t.On, true}, {"off window", t.Off, true},
		{"think time", t.Think, true}, {"crit fraction", t.Crit, false},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("serve: traffic %s must be finite, got %g", f.name, f.v)
		}
		if a := math.Abs(f.v); f.windowed && a != 0 && (a < 1e-9 || a > 1e9) {
			return fmt.Errorf("serve: traffic %s %g outside [1e-9, 1e9]", f.name, f.v)
		}
	}
	if t.Crit < 0 || t.Crit > 1 {
		return fmt.Errorf("serve: crit fraction %g outside [0, 1]", t.Crit)
	}
	switch t.Kind {
	case kindPoisson, kindDiurnal, kindBursty:
		if t.Rate <= 0 {
			return fmt.Errorf("serve: %s rate must be > 0, got r%g", t.Kind, t.Rate)
		}
	}
	switch t.Kind {
	case kindDiurnal:
		if t.Amp < 0 || t.Amp >= 1 {
			return fmt.Errorf("serve: diurnal amplitude %g outside [0, 1)", t.Amp)
		}
		if t.Period <= 0 {
			return fmt.Errorf("serve: diurnal period must be > 0, got p%g", t.Period)
		}
	case kindBursty:
		if t.Burst <= 1 {
			return fmt.Errorf("serve: burst factor must be > 1, got x%g", t.Burst)
		}
		if t.On <= 0 || t.Off <= 0 {
			return fmt.Errorf("serve: bursty windows must be > 0, got on%g off%g", t.On, t.Off)
		}
	case kindClosed:
		if t.Users <= 0 {
			return fmt.Errorf("serve: closed loop needs users, got u%d", t.Users)
		}
		if t.Think < 0 {
			return fmt.Errorf("serve: think time must be >= 0, got t%g", t.Think)
		}
	}
	return nil
}

// String renders the canonical spec; ParseTraffic(t.String()) round-trips.
func (t *Traffic) String() string {
	row, _ := t.row()
	return row.String()
}

// Open reports whether the generator is open-loop (arrival times independent
// of service); closed-loop traffic self-throttles with latency instead.
func (t *Traffic) Open() bool { return t.Kind != kindClosed }

// withRate returns a copy of the spec at a different open-loop base rate —
// the knob a latency-vs-throughput curve turns. It panics on closed-loop
// specs, whose offered load is set by Users and Think instead.
func (t *Traffic) withRate(r float64) *Traffic {
	if !t.Open() {
		panic("serve: withRate on closed-loop traffic")
	}
	c := *t
	c.Rate = r
	return &c
}

// maxRate bounds the instantaneous open-loop rate, for thinning.
func (t *Traffic) maxRate() float64 {
	switch t.Kind {
	case kindDiurnal:
		return t.Rate * (1 + t.Amp)
	case kindBursty:
		return t.Rate * t.Burst
	default:
		return t.Rate
	}
}

// rateAt is the instantaneous open-loop rate at time s.
func (t *Traffic) rateAt(s float64) float64 {
	switch t.Kind {
	case kindDiurnal:
		return t.Rate * (1 + t.Amp*math.Sin(2*math.Pi*s/t.Period))
	case kindBursty:
		if math.Mod(s, t.On+t.Off) < t.On {
			return t.Rate * t.Burst
		}
		return t.Rate
	default:
		return t.Rate
	}
}

// Arrivals materializes the open-loop arrival process: N requests in
// non-decreasing time order, deterministically derived from the seed.
// Arrivals panics on closed-loop traffic — a closed loop has no arrival
// times until the requests it reacts to have been served.
func (t *Traffic) Arrivals() []Request {
	g := t.generator()
	out := make([]Request, t.N)
	for i := range out {
		out[i].At, out[i].Critical = g.next()
	}
	return out
}

// generator is the open-loop arrival process as a stream: Arrivals drains it
// into a slice, a serving run straight into its request trace. The
// inhomogeneous kinds (diurnal, bursty) are generated by thinning against the
// peak rate, so the three generators share one candidate stream shape. The
// class stream is drawn from its own derived source, so adding a critical
// fraction never perturbs the arrival times.
type generator struct {
	t           *Traffic
	rng, crng   *rand.Rand
	peak, now   float64
	homogeneous bool // no thinning draw
}

func (t *Traffic) generator() *generator {
	if !t.Open() {
		panic("serve: Arrivals on closed-loop traffic")
	}
	g := &generator{t: t, rng: rand.New(rand.NewSource(t.Seed)), peak: t.maxRate(), homogeneous: t.Kind == kindPoisson}
	if t.Crit > 0 {
		g.crng = rand.New(rand.NewSource(t.Seed + critSeedOffset))
	}
	return g
}

// next draws the next arrival's time and class.
//
//hetlint:hotpath
func (g *generator) next() (at float64, critical bool) {
	for {
		g.now += g.rng.ExpFloat64() / g.peak
		if g.homogeneous || g.rng.Float64()*g.peak <= g.t.rateAt(g.now) {
			break
		}
	}
	return g.now, g.crng != nil && g.crng.Float64() < g.t.Crit
}

// critSeedOffset derives the traffic-class stream's seed from the arrival
// stream's, keeping the two draws independent.
const critSeedOffset = 0x9e3779b9

// userStream seeds closed-loop user u's private think/class source: each of
// the user's requests draws one think time (ExpFloat64 * Think) and one
// class draw (Float64 < Crit) from it, in request order. Every user owning
// its own derived stream means the draws do not depend on how users'
// requests interleave in simulated time — the property that makes
// closed-loop runs seed-deterministic — and a user that outpaces the
// average never exhausts a pre-sized pool.
func (t *Traffic) userStream(u int) *rand.Rand {
	return rand.New(rand.NewSource(t.Seed*1000003 + int64(u) + 1))
}
