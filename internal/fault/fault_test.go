package fault

import (
	"math"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"slow:w0:x2",
		"slow:w1:x1.5:mb8-24",
		"crash:w2:mb40",
		"crash:w2:mb40:down2.5",
		"stall:s0:c3:0.05",
		"link:w3:x4",
		"rand:0.5:seed7",
		"slow:w0:x2,crash:w1:mb40,link:w2:x3,stall:s1:c2:0.1",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(String(%q)) = Parse(%q): %v", spec, canon, err)
		}
		if got := p2.String(); got != canon {
			t.Errorf("%q: canonical form unstable: %q then %q", spec, canon, got)
		}
	}
}

// TestUsageIsWhatErrorsQuote: Usage has one line per clause kind, and a
// clause missing its required fields is refused with exactly that line, so
// a listing of Usage states the grammar Parse takes.
func TestUsageIsWhatErrorsQuote(t *testing.T) {
	lines := Usage()
	kinds := make(map[string]bool)
	for _, u := range lines {
		kind, _, _ := strings.Cut(u, ":")
		kinds[kind] = true
		_, err := Parse(kind)
		if err == nil || !strings.HasSuffix(err.Error(), "want "+u) {
			t.Errorf("Parse(%q) = %v, want an error quoting %q", kind, err, u)
		}
	}
	if len(kinds) != 5 || len(lines) != 5 {
		t.Errorf("Usage() = %q, want one line for each of slow, crash, stall, link and rand", lines)
	}
}

func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", ",", " , "} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if !p.Empty() {
			t.Errorf("Parse(%q) not empty: %v", spec, p)
		}
		if p.String() != "" {
			t.Errorf("Parse(%q).String() = %q, want empty", spec, p.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"boom:w0:x2",                // unknown kind
		"slow:0:x2",                 // missing w prefix
		"slow:w0:2",                 // missing x prefix
		"slow:w0:x0.5",              // factor below 1
		"slow:w0:x2:8-24",           // missing mb prefix
		"slow:w0:x2:mb24-8",         // inverted range
		"crash:w0:mb0",              // minibatch below 1
		"crash:w0",                  // missing minibatch
		"crash:w0:mb4,crash:w0:mb9", // double crash
		"stall:s0:c0:0.1",           // clock below 1
		"stall:s0:c1:0",             // zero delay
		"stall:s0:c1",               // missing delay
		"link:w0:x0.9",              // factor below 1
		"rand:1.5",                  // rate above 1
		"rand:0.5,rand:0.2",         // two rand clauses
		"rand:0.5:max1.1",           // max factor below 1.5
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// TestNonFiniteRealsRejected: strconv.ParseFloat parses NaN and Inf, a NaN
// passes every </> range check and +Inf all but an upper bound, so each real a
// plan carries is checked for finiteness on its own — from a spec and from a
// literal — and so are the magnitudes that overflow once multiplied.
func TestNonFiniteRealsRejected(t *testing.T) {
	for _, tc := range []struct {
		spec string
		plan Plan
		want string
	}{
		{"slow:w0:xNaN", Plan{Slowdowns: []Slowdown{{Factor: math.NaN()}}}, "slowdown factor must be finite"},
		{"slow:w0:xInf", Plan{Slowdowns: []Slowdown{{Factor: math.Inf(1)}}}, "slowdown factor must be finite"},
		{"slow:w0:x-Inf", Plan{Slowdowns: []Slowdown{{Factor: math.Inf(-1)}}}, "slowdown factor must be finite"},
		{"stall:s0:c1:NaN", Plan{Stalls: []PSStall{{AtClock: 1, Delay: math.NaN()}}}, "stall delay must be finite"},
		{"stall:s0:c1:+Inf", Plan{Stalls: []PSStall{{AtClock: 1, Delay: math.Inf(1)}}}, "stall delay must be finite"},
		{"crash:w0:mb5:downInf", Plan{Crashes: []Crash{{AtMinibatch: 5, Downtime: math.Inf(1)}}}, "crash downtime must be finite"},
		{"crash:w0:mb5:downNaN", Plan{Crashes: []Crash{{AtMinibatch: 5, Downtime: math.NaN()}}}, "crash downtime must be finite"},
		{"link:w0:xNaN", Plan{Links: []LinkDegrade{{Factor: math.NaN()}}}, "link factor must be finite"},
		{"link:w0:xinfinity", Plan{Links: []LinkDegrade{{Factor: math.Inf(1)}}}, "link factor must be finite"},
		{"rand:NaN", Plan{Rand: &RandSpec{Rate: math.NaN()}}, "rand rate must be finite"},
		{"rand:0.5:maxInf", Plan{Rand: &RandSpec{Rate: 0.5, MaxFactor: math.Inf(1)}}, "rand max factor must be finite"},
		{"rand:0.5:maxNaN", Plan{Rand: &RandSpec{Rate: 0.5, MaxFactor: math.NaN()}}, "rand max factor must be finite"},
		{"slow:w0:x1e300", Plan{Slowdowns: []Slowdown{{Factor: 1e300}}}, "above 1e+09"},
		{"stall:s0:c1:2e9", Plan{Stalls: []PSStall{{AtClock: 1, Delay: 2e9}}}, "above 1e+09"},
		{"slow:w1:x1e5,slow:w1:x1e5:mb3-9", Plan{Slowdowns: []Slowdown{{Worker: 1, Factor: 1e5}, {Worker: 1, Factor: 1e5, FromMinibatch: 3, ToMinibatch: 9}}}, "multiply to more than"},
		{"link:w2:x1e5,link:w2:x1e5", Plan{Links: []LinkDegrade{{Worker: 2, Factor: 1e5}, {Worker: 2, Factor: 1e5}}}, "multiply to more than"},
	} {
		if _, err := Parse(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q): error %v, want one containing %q", tc.spec, err, tc.want)
		}
		if err := tc.plan.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q as a literal: Validate error %v, want one containing %q", tc.spec, err, tc.want)
		}
		if _, err := tc.plan.Materialize(4); err == nil {
			t.Errorf("%q as a literal: Materialize accepted it", tc.spec)
		}
	}
	// The same factors on different workers do not compound.
	if _, err := Parse("slow:w0:x1e5,slow:w1:x1e5,link:w0:x1e5,link:w1:x1e5,slow:w2:x1e9"); err != nil {
		t.Errorf("large factors on separate workers: %v", err)
	}
}

func TestComputeScale(t *testing.T) {
	p, err := Parse("slow:w0:x2,slow:w0:x3:mb5-10,slow:w1:x1.5:mb8-0")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		w, mb int
		want  float64
	}{
		{0, 1, 2}, {0, 4, 2}, {0, 5, 6}, {0, 10, 6}, {0, 11, 2},
		{1, 7, 1}, {1, 8, 1.5}, {1, 1000, 1.5},
		{2, 1, 1},
	}
	for _, c := range cases {
		if got := p.ComputeScale(c.w, c.mb); got != c.want {
			t.Errorf("ComputeScale(%d, %d) = %g, want %g", c.w, c.mb, got, c.want)
		}
	}
	var nilPlan *Plan
	if got := nilPlan.ComputeScale(0, 1); got != 1 {
		t.Errorf("nil plan ComputeScale = %g, want 1", got)
	}
}

func TestLinkScaleAndStallDelay(t *testing.T) {
	p, err := Parse("link:w1:x4,stall:s0:c3:0.05,stall:s1:c3:0.1,stall:s0:c5:0.2")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.LinkScale(1); got != 4 {
		t.Errorf("LinkScale(1) = %g, want 4", got)
	}
	if got := p.LinkScale(0); got != 1 {
		t.Errorf("LinkScale(0) = %g, want 1", got)
	}
	if got := p.StallDelay(3); got != 0.15000000000000002 && got != 0.15 {
		t.Errorf("StallDelay(3) = %g, want 0.15", got)
	}
	if got := p.StallDelay(4); got != 0 {
		t.Errorf("StallDelay(4) = %g, want 0", got)
	}
}

func TestCrashFor(t *testing.T) {
	p, err := Parse("crash:w2:mb40")
	if err != nil {
		t.Fatal(err)
	}
	c := p.CrashFor(2)
	if c == nil || c.AtMinibatch != 40 {
		t.Fatalf("CrashFor(2) = %+v, want minibatch 40", c)
	}
	cur := p.Cursor(2)
	if _, charge := cur.Task(40, 0); charge != DefaultCrashDowntime {
		t.Errorf("crash charge = %g, want default %g", charge, DefaultCrashDowntime)
	}
	if p.CrashFor(0) != nil {
		t.Error("CrashFor(0) non-nil")
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	p, err := Parse("rand:0.5:seed7")
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Materialize(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Materialize(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("rand materialization not deterministic:\n%s\n%s", a, b)
	}
	if a.Rand != nil {
		t.Error("materialized plan still carries a Rand clause")
	}
	// With rate 0.5 over 8 workers, some but (almost surely) not all workers
	// straggle; the seeded draw pins the exact set, so just check bounds.
	if len(a.Slowdowns) == 0 || len(a.Slowdowns) == 8 {
		t.Errorf("rand:0.5 over 8 workers produced %d slowdowns", len(a.Slowdowns))
	}
	for _, s := range a.Slowdowns {
		if s.Factor < 1.5 || s.Factor > 3 {
			t.Errorf("rand slowdown factor %g outside [1.5, 3]", s.Factor)
		}
	}

	// A different seed produces a different population.
	q, err := Parse("rand:0.5:seed8")
	if err != nil {
		t.Fatal(err)
	}
	c, err := q.Materialize(8)
	if err != nil {
		t.Fatal(err)
	}
	if c.String() == a.String() {
		t.Error("different seeds produced identical populations")
	}
}

func TestMaterializeRangeChecks(t *testing.T) {
	p, err := Parse("slow:w5:x2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Materialize(4); err == nil {
		t.Error("Materialize(4) accepted worker 5")
	}
	if _, err := p.Materialize(6); err != nil {
		t.Errorf("Materialize(6): %v", err)
	}
	var nilPlan *Plan
	m, err := nilPlan.Materialize(3)
	if err != nil {
		t.Fatalf("nil plan Materialize: %v", err)
	}
	if !m.Empty() {
		t.Error("nil plan materialized non-empty")
	}
}

func TestEmptyPlanIsNoop(t *testing.T) {
	var p *Plan
	if !p.Empty() {
		t.Error("nil plan not empty")
	}
	if p.ComputeScale(3, 9) != 1 || p.LinkScale(2) != 1 || p.StallDelay(1) != 0 || p.CrashFor(0) != nil {
		t.Error("nil plan injects something")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("nil plan Validate: %v", err)
	}
	empty := &Plan{}
	if !empty.Empty() || empty.String() != "" {
		t.Error("zero plan not empty")
	}
}

func TestStringSortsClauses(t *testing.T) {
	p, err := Parse("link:w1:x2,crash:w0:mb4,slow:w2:x3")
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.HasPrefix(s, "crash:") {
		t.Errorf("canonical form not sorted: %q", s)
	}
}

// Touches is true exactly for the workers a slowdown, crash or link clause
// names — stalls name a shard, not a worker — and a rand clause touches whom
// it was materialized onto.
func TestTouches(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		workers int
		want    []bool
	}{
		{"", 3, []bool{false, false, false}},
		{"slow:w0:x2", 3, []bool{true, false, false}},
		{"slow:w1:x1", 3, []bool{false, true, false}}, // a factor of 1 still names the worker
		{"slow:w1:x1.5:mb8-24", 3, []bool{false, true, false}},
		{"crash:w2:mb40", 3, []bool{false, false, true}},
		{"link:w3:x4", 4, []bool{false, false, false, true}},
		{"stall:s0:c3:0.05", 2, []bool{false, false}},
		{"stall:s1:c3:0.05,link:w1:x2", 2, []bool{false, true}},
		{"slow:w0:x2,slow:w0:x3:mb4-8,crash:w2:mb9", 4, []bool{true, false, true, false}},
	} {
		p, err := Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := p.Materialize(tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		for w, want := range tc.want {
			if got := fp.Touches(w); got != want {
				t.Errorf("%q: Touches(%d) = %v, want %v", tc.spec, w, got, want)
			}
		}
	}
	if (*Plan)(nil).Touches(0) {
		t.Error("nil plan touches worker 0")
	}

	// A materialized rand clause touches exactly its stragglers, and some
	// seed leaves a worker alone while hitting another.
	mixed := false
	for seed := int64(1); seed <= 8; seed++ {
		fp, err := (&Plan{Rand: &RandSpec{Rate: 0.5, Seed: seed}}).Materialize(8)
		if err != nil {
			t.Fatal(err)
		}
		hit := 0
		for w := 0; w < 8; w++ {
			if got, want := fp.Touches(w), fp.ComputeScale(w, 1) > 1; got != want {
				t.Errorf("rand seed %d: Touches(%d) = %v, want %v", seed, w, got, want)
			}
			if fp.Touches(w) {
				hit++
			}
		}
		mixed = mixed || (hit > 0 && hit < 8)
	}
	if !mixed {
		t.Error("no rand seed produced both a straggler and an untouched worker")
	}
}

// The event labels are the spec's own clause forms: a label parses back to
// the clause that caused it, and %g prints what the canonical form does.
func TestLabelsAreClauses(t *testing.T) {
	for _, f := range []float64{2, 1.5, 0.1, 1e-7, 123456789, 1e9, 1.0000000000000002} {
		for _, text := range []string{label{kind: 's', n: 3, x: f}.String(), label{kind: 'l', n: 3, x: f}.String()} {
			p, err := Parse(text)
			if err != nil {
				if f >= 1 {
					t.Errorf("label %q does not parse: %v", text, err)
				}
				continue
			}
			if p.String() != text {
				t.Errorf("label %q canonicalises to %q", text, p.String())
			}
		}
		if got, want := (label{kind: 't', n: 4, x: f}).String(), "stall:c4:"+ftoa(f); got != want {
			t.Errorf("stall label = %q, want %q", got, want)
		}
	}
	if p, err := Parse((label{kind: 'c', n: 2, mb: 40}).String()); err != nil || p.String() != "crash:w2:mb40" {
		t.Errorf("crash label round trip = %v, %v", p, err)
	}
}
