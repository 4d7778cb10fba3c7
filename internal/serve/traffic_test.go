package serve

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"hetpipe/internal/fault"
	"hetpipe/internal/hw"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
)

func TestParseTrafficRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"poisson:r120:n2000",
		"poisson:r120:n2000:seed7",
		"poisson:r120:n2000:seed7:crit0.25",
		"diurnal:r120:a0.5:p60:n2000",
		"bursty:r60:x4:on2:off8:n2000:crit0.1",
		"closed:u64:t0.05:n2000:seed3",
	} {
		tr, err := ParseTraffic(spec)
		if err != nil {
			t.Fatalf("ParseTraffic(%q): %v", spec, err)
		}
		if got := tr.String(); got != spec {
			t.Errorf("round trip %q -> %q", spec, got)
		}
		again, err := ParseTraffic(tr.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", tr.String(), err)
		}
		if *again != *tr {
			t.Errorf("reparse of %q differs: %+v vs %+v", spec, again, tr)
		}
	}
}

// TestTrafficUsageIsWhatErrorsQuote: TrafficUsage has one line per traffic
// kind, and a spec missing its required fields is refused with exactly that
// line, so a listing of TrafficUsage states the grammar ParseTraffic takes.
func TestTrafficUsageIsWhatErrorsQuote(t *testing.T) {
	lines := TrafficUsage()
	for i, kind := range []string{kindPoisson, kindDiurnal, kindBursty, kindClosed} {
		if i >= len(lines) || !strings.HasPrefix(lines[i], kind+":") {
			t.Fatalf("TrafficUsage() = %q, want one line per kind starting with %s", lines, kind)
		}
		_, err := ParseTraffic(kind)
		if err == nil || !strings.HasSuffix(err.Error(), "want "+lines[i]) {
			t.Errorf("ParseTraffic(%q) = %v, want an error quoting %q", kind, err, lines[i])
		}
	}
	if len(lines) != 4 {
		t.Errorf("TrafficUsage() has %d lines, want 4", len(lines))
	}
}

func TestParseTrafficErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"warp:r10:n5",
		"poisson:r10",
		"poisson:rX:n5",
		"poisson:r10:n0",
		"poisson:r0:n5",
		"poisson:r10:n5:bogus1",
		"poisson:r10:n5:seedX",
		"poisson:r10:n5:crit1.5",
		"diurnal:r10:a1.5:p60:n5",
		"diurnal:r10:a0.5:p0:n5",
		"bursty:r10:x1:on2:off8:n5",
		"bursty:r10:x4:on0:off8:n5",
		"closed:u0:t0.1:n5",
		"closed:u4:t-1:n5",
	} {
		if _, err := ParseTraffic(spec); err == nil {
			t.Errorf("ParseTraffic(%q) accepted", spec)
		}
	}
}

func TestArrivalsShape(t *testing.T) {
	for _, spec := range []string{
		"poisson:r100:n500",
		"diurnal:r100:a0.8:p5:n500",
		"bursty:r50:x5:on1:off4:n500",
	} {
		tr, err := ParseTraffic(spec)
		if err != nil {
			t.Fatal(err)
		}
		arr := tr.Arrivals()
		if len(arr) != tr.N {
			t.Fatalf("%s: %d arrivals, want %d", spec, len(arr), tr.N)
		}
		last := 0.0
		for i, a := range arr {
			if a.At < last {
				t.Fatalf("%s: arrival %d at %g before predecessor %g", spec, i, a.At, last)
			}
			last = a.At
			if a.Critical {
				t.Fatalf("%s: critical request without crit fraction", spec)
			}
		}
	}
}

func TestArrivalsCriticalFractionIsolated(t *testing.T) {
	base, err := ParseTraffic("poisson:r100:n2000")
	if err != nil {
		t.Fatal(err)
	}
	crit, err := ParseTraffic("poisson:r100:n2000:crit0.3")
	if err != nil {
		t.Fatal(err)
	}
	a, b := base.Arrivals(), crit.Arrivals()
	marked := 0
	for i := range a {
		if a[i].At != b[i].At {
			t.Fatalf("crit fraction perturbed arrival %d: %g vs %g", i, a[i].At, b[i].At)
		}
		if b[i].Critical {
			marked++
		}
	}
	frac := float64(marked) / float64(len(b))
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("critical fraction %g far from requested 0.3", frac)
	}
}

func TestArrivalsMeanRate(t *testing.T) {
	tr, err := ParseTraffic("poisson:r200:n4000")
	if err != nil {
		t.Fatal(err)
	}
	arr := tr.Arrivals()
	span := arr[len(arr)-1].At
	rate := float64(len(arr)) / span
	if rate < 180 || rate > 220 {
		t.Errorf("empirical rate %g far from offered 200", rate)
	}
}

func TestWithRate(t *testing.T) {
	tr, err := ParseTraffic("poisson:r100:n50:seed9")
	if err != nil {
		t.Fatal(err)
	}
	faster := tr.withRate(400)
	if faster.Rate != 400 || faster.N != 50 || faster.Seed != 9 {
		t.Errorf("withRate lost fields: %+v", faster)
	}
	if tr.Rate != 100 {
		t.Errorf("withRate mutated the receiver")
	}
	closed, err := ParseTraffic("closed:u4:t0.1:n20")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("withRate on closed-loop traffic did not panic")
		}
	}()
	closed.withRate(10)
}

func TestUserStreamPerUserIndependence(t *testing.T) {
	tr, err := ParseTraffic("closed:u4:t0.1:n40:crit0.5")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(u, n int) []float64 {
		rng := tr.userStream(u)
		out := make([]float64, 0, 2*n)
		for i := 0; i < n; i++ {
			th := rng.ExpFloat64() * tr.Think
			if th < 0 {
				t.Fatalf("negative think time for user %d", u)
			}
			out = append(out, th, rng.Float64())
		}
		return out
	}
	// The stream is a pure function of (seed, user): re-seeding replays it.
	a, b := draw(0, 32), draw(0, 32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("user stream not deterministic at draw %d", i)
		}
	}
	// Distinct users draw distinct streams.
	c := draw(1, 32)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("users 0 and 1 share a think stream")
	}
}

func TestTrafficStringMentionsKind(t *testing.T) {
	tr, err := ParseTraffic("bursty:r60:x4:on2:off8:n100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tr.String(), "bursty:") {
		t.Errorf("canonical form %q lost its kind", tr.String())
	}
}

// TestNonFiniteTrafficRejected pins the parent-commit failures: ParseFloat
// parses NaN and Inf, and a NaN passes every </> range check, so
// "diurnal:r10:aNaN:p1:n50" used to spin forever in the thinning loop and
// "poisson:rNaN:n50" to serve 50 requests at mean=NaN. Every real field of
// the grammar must refuse NaN and both infinities, and a magnitude float64
// virtual time cannot carry.
func TestNonFiniteTrafficRejected(t *testing.T) {
	fields := []struct {
		name, spec string // %s is the field's value
		ok         string
		field      func(*Traffic) *float64
	}{
		{"rate", "poisson:r%s:n50", "10", func(t *Traffic) *float64 { return &t.Rate }},
		{"amp", "diurnal:r10:a%s:p1:n50", "0.5", func(t *Traffic) *float64 { return &t.Amp }},
		{"period", "diurnal:r10:a0.5:p%s:n50", "1", func(t *Traffic) *float64 { return &t.Period }},
		{"burst", "bursty:r10:x%s:on1:off1:n50", "2", func(t *Traffic) *float64 { return &t.Burst }},
		{"on", "bursty:r10:x2:on%s:off1:n50", "1", func(t *Traffic) *float64 { return &t.On }},
		{"off", "bursty:r10:x2:on1:off%s:n50", "1", func(t *Traffic) *float64 { return &t.Off }},
		{"think", "closed:u4:t%s:n50", "0.1", func(t *Traffic) *float64 { return &t.Think }},
		{"crit", "poisson:r10:n50:crit%s", "0.5", func(t *Traffic) *float64 { return &t.Crit }},
	}
	for _, f := range fields {
		for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e999"} {
			spec := strings.Replace(f.spec, "%s", v, 1)
			if tr, err := ParseTraffic(spec); err == nil {
				t.Errorf("%s: ParseTraffic(%q) accepted as %q", f.name, spec, tr)
			}
		}
		// A hand-built spec never saw the parser; Validate (which RunOn calls)
		// must refuse it all the same.
		tr, err := ParseTraffic(strings.Replace(f.spec, "%s", f.ok, 1))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad := *tr
			*f.field(&bad) = v
			if err := bad.validate(); err == nil {
				t.Errorf("%s = %v passed Validate", f.name, v)
			}
		}
	}
	// Finite, but outside what the generators' arithmetic survives: a
	// subnormal period overflows 2*pi*s/p to a NaN rate, a subnormal rate or
	// a huge think time overflows the arrival clock.
	for _, spec := range []string{
		"diurnal:r10:a0.5:p1e-320:n50",
		"poisson:r5e-324:n50",
		"diurnal:r1.5e308:a0.5:p1:n50",
		"bursty:r1e200:x1e200:on1:off1:n50",
		"closed:u4:t1e308:n50",
	} {
		if tr, err := ParseTraffic(spec); err == nil {
			t.Errorf("ParseTraffic(%q) accepted as %q", spec, tr)
		}
	}
}

// FuzzParseTraffic holds the traffic grammar to what a spec language owes:
// no input panics the parser; an accepted spec's canonical form is a fixed
// point of parse-and-print; and an accepted spec is runnable — clamped to a
// few dozen requests it serves its whole offer on the mini deployment, under
// a deadline, with finite latencies (so no accepted number can hang a
// generator or poison the clock).
func FuzzParseTraffic(f *testing.F) {
	for _, spec := range []string{
		"poisson:r120:n2000", "poisson:r120:n2000:seed7:crit0.2",
		"diurnal:r120:a0.5:p60:n2000", "diurnal:r120:a0.8:p60:n2000",
		"bursty:r60:x4:on2:off8:n2000", "bursty:r60:x4:on2:off8:n2000:crit0.1",
		"closed:u64:t0.05:n2000", "closed:u16:t0.05:n2000:seed3", "closed:u16:t0:n20",
		"diurnal:r10:aNaN:p1:n50", "poisson:rNaN:n50", "poisson:rInf:n50", "closed:u4:t-Inf:n50",
		"diurnal:r10:a0.5:p1e-320:n50", "poisson:r1e-9:n5", "bursty:r1e9:x1e9:on1e-9:off1e9:n3",
		"", ":", "poisson", "poisson:r1:n1:seed-9223372036854775808:crit1", " poisson:r0x1p4:n+3 ",
	} {
		f.Add(spec)
	}
	// The mini cluster's ED deployment: four small replicas, cheap enough to
	// serve a few dozen requests per fuzz execution.
	mini, err := hw.ClusterByName("mini")
	if err != nil {
		f.Fatal(err)
	}
	dep := deploymentOn(f, mini, sched.NameFIFO, hw.EqualDistribution, 2)
	eng := sim.New()
	f.Fuzz(func(t *testing.T, spec string) {
		tr, err := ParseTraffic(spec)
		if err != nil {
			return
		}
		canon := tr.String()
		again, err := ParseTraffic(canon)
		if err != nil {
			t.Fatalf("%q parsed, its canonical form %q does not: %v", spec, canon, err)
		}
		if again.String() != canon {
			t.Fatalf("%q: canonical form %q reprints as %q", spec, canon, again.String())
		}
		if tr.N > 64 {
			tr.N = 64
		}
		if tr.Users > tr.N {
			tr.Users = tr.N // RunOn wants a request per closed-loop user
		}
		if tr.Burst > 64 {
			// Thinning draws ~Burst candidates per accepted off-window
			// arrival: finite, but not a fuzz execution's worth of work.
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		res, err := RunOn(ctx, eng, dep, tr, Options{})
		if err != nil {
			t.Fatalf("%q: %v", canon, err)
		}
		if res.Served != res.Offered || res.Offered != tr.N {
			t.Fatalf("%q: served %d of %d (n%d)", canon, res.Served, res.Offered, tr.N)
		}
		for _, l := range []LatencySummary{res.Latency, res.Critical, res.Bulk} {
			for _, v := range []float64{l.Mean, l.P50, l.P95, l.P99, l.Max} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%q: latency summary %s", canon, l)
				}
			}
		}
	})
}

// The grammar sits on two benchmark paths: RunOn formats its traffic once
// per run, and every hetpipe.New parses the (usually empty) fault spec. The
// counts are those of the hand-written parser and printer the clause rows
// replaced; neither may grow.
func TestGrammarAllocationsPinned(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		allocs float64
	}{
		{"poisson:r100:n40000", 7}, {"poisson:r160:n40000", 7}, {"poisson:r220:n40000", 7},
		{"closed:u32:t0.05:n40000", 7}, {"bursty:r120:x3:on1:off3:n40000", 13},
	} {
		tr := traffic(t, tc.spec)
		if got := testing.AllocsPerRun(100, func() { _ = tr.String() }); got > tc.allocs {
			t.Errorf("%s: String makes %g allocations, want <= %g", tc.spec, got, tc.allocs)
		}
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = fault.Parse("") }); got > 2 {
		t.Errorf(`fault.Parse(""): %g allocations, want <= 2`, got)
	}
}
