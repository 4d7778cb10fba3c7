package serve

// The traffic grammar's parser and printer as they were before they became
// rows over internal/clause, kept verbatim (renamed with a ref prefix) as the
// oracle FuzzParseTrafficMatchesReference holds the table-driven ones to.

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseTrafficMatchesReference holds ParseTraffic and Traffic.String to
// the hand-written parser and printer they replaced: on every input both
// accept or both reject, an accepted spec parses to the same Traffic, and it
// prints the same canonical form through either printer. The one intended
// difference is a repeated seed or crit field, which the reference let the
// last repeat win and ParseTraffic rejects.
func FuzzParseTrafficMatchesReference(f *testing.F) {
	for _, spec := range []string{
		// FuzzParseTraffic's seeds.
		"poisson:r120:n2000", "poisson:r120:n2000:seed7:crit0.2",
		"diurnal:r120:a0.5:p60:n2000", "diurnal:r120:a0.8:p60:n2000",
		"bursty:r60:x4:on2:off8:n2000", "bursty:r60:x4:on2:off8:n2000:crit0.1",
		"closed:u64:t0.05:n2000", "closed:u16:t0.05:n2000:seed3", "closed:u16:t0:n20",
		"diurnal:r10:aNaN:p1:n50", "poisson:rNaN:n50", "poisson:rInf:n50", "closed:u4:t-Inf:n50",
		"diurnal:r10:a0.5:p1e-320:n50", "poisson:r1e-9:n5", "bursty:r1e9:x1e9:on1e-9:off1e9:n3",
		"", ":", "poisson", "poisson:r1:n1:seed-9223372036854775808:crit1", " poisson:r0x1p4:n+3 ",
		// Optional fields out of order, at their defaults, repeated.
		"poisson:r1:n5:crit0.5:seed9", "closed:u4:t0:n5:seed1:crit0", "poisson:r1:n5:seed2:seed3",
		"poisson:r1:n5:crit0.1:crit0.2", "warp:r1:n5", "poisson:r1:n5:bogus",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tr, err := ParseTraffic(spec)
		ref, refErr := refParseTraffic(spec)
		switch {
		case err != nil && refErr != nil:
			return
		case err != nil && strings.Contains(err.Error(), "may appear once") && repeatsOptional(spec):
			return
		case (err == nil) != (refErr == nil):
			t.Fatalf("%q: ParseTraffic error %v, reference error %v", spec, err, refErr)
		}
		if !reflect.DeepEqual(tr, ref) {
			t.Fatalf("%q: ParseTraffic gives %+v, the reference %+v", spec, tr, ref)
		}
		if got, want := tr.String(), ref.refString(); got != want {
			t.Fatalf("%q: String %q, the reference's %q", spec, got, want)
		}
	})
}

// repeatsOptional reports whether spec names seed or crit twice.
func repeatsOptional(spec string) bool {
	seed, crit := 0, 0
	for _, f := range strings.Split(spec, ":")[1:] {
		if strings.HasPrefix(f, "seed") {
			seed++
		}
		if strings.HasPrefix(f, "crit") {
			crit++
		}
	}
	return seed > 1 || crit > 1
}

// refParseTraffic is ParseTraffic as it was: it parses a traffic spec.
// The grammar is colon-separated, in the style of the fault spec language:
//
//	poisson:r120:n2000             120 req/s Poisson, 2000 requests
//	diurnal:r120:a0.5:p60:n2000    sinusoidal 60..180 req/s, period 60 s
//	bursty:r60:x4:on2:off8:n2000   60 req/s, 4x bursts 2 s on / 8 s off
//	closed:u64:t0.05:n2000         64 users, 50 ms mean think time
//
// Every kind accepts two optional trailing fields: seed<k> (default seed1)
// and crit<f> (fraction of latency-critical requests, default 0), e.g.
// "poisson:r120:n2000:seed7:crit0.2". The parsed spec is validated; the
// canonical form round-trips through String.
func refParseTraffic(spec string) (*Traffic, error) {
	fields := strings.Split(strings.TrimSpace(spec), ":")
	if len(fields) == 0 || fields[0] == "" {
		return nil, fmt.Errorf("serve: empty traffic spec")
	}
	t := &Traffic{Kind: fields[0], Seed: 1}
	rest, err := t.refParseBody(fields[1:])
	if err != nil {
		return nil, err
	}
	for _, f := range rest {
		switch {
		case strings.HasPrefix(f, "seed"):
			s, err := strconv.ParseInt(f[len("seed"):], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("serve: bad seed %q in traffic spec", f)
			}
			t.Seed = s
		case strings.HasPrefix(f, "crit"):
			c, err := strconv.ParseFloat(f[len("crit"):], 64)
			if err != nil {
				return nil, fmt.Errorf("serve: bad crit fraction %q in traffic spec", f)
			}
			t.Crit = c
		default:
			return nil, fmt.Errorf("serve: unknown traffic field %q", f)
		}
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// refParseBody is parseBody as it was: it consumes the kind-specific
// positional fields and returns the remaining (optional) ones.
func (t *Traffic) refParseBody(fields []string) ([]string, error) {
	var err error
	switch t.Kind {
	case kindPoisson:
		if len(fields) < 2 {
			return nil, fmt.Errorf("serve: poisson wants poisson:r<rate>:n<count>")
		}
		if t.Rate, err = refPrefFloat(fields[0], "r"); err != nil {
			return nil, err
		}
		if t.N, err = refPrefInt(fields[1], "n"); err != nil {
			return nil, err
		}
		return fields[2:], nil
	case kindDiurnal:
		if len(fields) < 4 {
			return nil, fmt.Errorf("serve: diurnal wants diurnal:r<rate>:a<amp>:p<period>:n<count>")
		}
		if t.Rate, err = refPrefFloat(fields[0], "r"); err != nil {
			return nil, err
		}
		if t.Amp, err = refPrefFloat(fields[1], "a"); err != nil {
			return nil, err
		}
		if t.Period, err = refPrefFloat(fields[2], "p"); err != nil {
			return nil, err
		}
		if t.N, err = refPrefInt(fields[3], "n"); err != nil {
			return nil, err
		}
		return fields[4:], nil
	case kindBursty:
		if len(fields) < 5 {
			return nil, fmt.Errorf("serve: bursty wants bursty:r<rate>:x<factor>:on<sec>:off<sec>:n<count>")
		}
		if t.Rate, err = refPrefFloat(fields[0], "r"); err != nil {
			return nil, err
		}
		if t.Burst, err = refPrefFloat(fields[1], "x"); err != nil {
			return nil, err
		}
		if t.On, err = refPrefFloat(fields[2], "on"); err != nil {
			return nil, err
		}
		if t.Off, err = refPrefFloat(fields[3], "off"); err != nil {
			return nil, err
		}
		if t.N, err = refPrefInt(fields[4], "n"); err != nil {
			return nil, err
		}
		return fields[5:], nil
	case kindClosed:
		if len(fields) < 3 {
			return nil, fmt.Errorf("serve: closed wants closed:u<users>:t<think>:n<count>")
		}
		if t.Users, err = refPrefInt(fields[0], "u"); err != nil {
			return nil, err
		}
		if t.Think, err = refPrefFloat(fields[1], "t"); err != nil {
			return nil, err
		}
		if t.N, err = refPrefInt(fields[2], "n"); err != nil {
			return nil, err
		}
		return fields[3:], nil
	default:
		return nil, fmt.Errorf("serve: unknown traffic kind %q (want %s, %s, %s, or %s)",
			t.Kind, kindPoisson, kindDiurnal, kindBursty, kindClosed)
	}
}

// refString is Traffic.String as it was: it renders the canonical spec;
// ParseTraffic(t.String()) round-trips.
func (t *Traffic) refString() string {
	var b strings.Builder
	b.WriteString(t.Kind)
	switch t.Kind {
	case kindPoisson:
		fmt.Fprintf(&b, ":r%s:n%d", refGfmt(t.Rate), t.N)
	case kindDiurnal:
		fmt.Fprintf(&b, ":r%s:a%s:p%s:n%d", refGfmt(t.Rate), refGfmt(t.Amp), refGfmt(t.Period), t.N)
	case kindBursty:
		fmt.Fprintf(&b, ":r%s:x%s:on%s:off%s:n%d", refGfmt(t.Rate), refGfmt(t.Burst), refGfmt(t.On), refGfmt(t.Off), t.N)
	case kindClosed:
		fmt.Fprintf(&b, ":u%d:t%s:n%d", t.Users, refGfmt(t.Think), t.N)
	}
	if t.Seed != 1 {
		fmt.Fprintf(&b, ":seed%d", t.Seed)
	}
	if t.Crit != 0 {
		fmt.Fprintf(&b, ":crit%s", refGfmt(t.Crit))
	}
	return b.String()
}

func refPrefInt(s, prefix string) (int, error) {
	if !strings.HasPrefix(s, prefix) {
		return 0, fmt.Errorf("serve: field %q wants prefix %q", s, prefix)
	}
	v, err := strconv.Atoi(s[len(prefix):])
	if err != nil {
		return 0, fmt.Errorf("serve: bad integer in field %q", s)
	}
	return v, nil
}

func refPrefFloat(s, prefix string) (float64, error) {
	if !strings.HasPrefix(s, prefix) {
		return 0, fmt.Errorf("serve: field %q wants prefix %q", s, prefix)
	}
	v, err := strconv.ParseFloat(s[len(prefix):], 64)
	if err != nil {
		return 0, fmt.Errorf("serve: bad number in field %q", s)
	}
	return v, nil
}

// refGfmt formats a float the way the fault spec language does ('g', shortest).
func refGfmt(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
