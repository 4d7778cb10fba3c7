package fault

// The fault grammar's parser and printer as they were before they became
// rows over internal/clause, kept verbatim (renamed with a ref prefix where a
// name is taken) as the oracle FuzzParseFaultsMatchesReference holds the
// table-driven ones to.

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseFaultsMatchesReference holds Parse and Plan.String to the
// hand-written parser and printer they replaced: on every input both accept
// or both reject, an accepted spec parses to the same plan, and that plan
// prints the same canonical form through either printer. The one intended
// difference is a repeated optional field, which the reference let the last
// repeat win and Parse rejects.
func FuzzParseFaultsMatchesReference(f *testing.F) {
	for _, spec := range []string{
		// FuzzParseFaults' seeds.
		"slow:w0:x2", "slow:w1:x1.5:mb8-24", "crash:w2:mb40", "crash:w2:mb40:down2.5",
		"stall:s0:c3:0.05", "link:w3:x4", "rand:0.5:seed7", "slow:w0:x2,crash:w1:mb40",
		"slow:w0:xNaN", "slow:w0:xInf", "stall:s0:c1:NaN", "crash:w0:mb5:downInf", "link:w0:xNaN", "rand:NaN",
		"slow:w0:x1e9,link:w0:x1e9,stall:s9:c2:1e9,crash:w0:mb3:down1e9,rand:1:max1e9",
		"slow:w0:x1e5,slow:w4:x1e5", "crash:w1:mb2,crash:w5:mb3", "slow:w2:x3:mb5-", "rand:1:seed-9:max1.5",
		"", ",", "slow", "SLOW:w0:x0x1p1", " stall:s0:c1:+1e-300 ",
		// Optional fields out of order, left at their defaults, repeated.
		"rand:0.5:max2:seed3", "slow:w0:x2:mb0-0", "slow:w0:x2:mb0-9", "crash:w0:mb3:down0",
		"rand:0.5:seed7:seed8", "rand:0.5:max2:max3", "slow:w0:x2:mb1-2:mb3-4", "crash:w0:mb3:down1:down2",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		ref, refErr := refParse(spec)
		switch {
		case err != nil && refErr != nil:
			return
		case err != nil && strings.Contains(err.Error(), "may appear once") && repeatsOptional(spec):
			return
		case (err == nil) != (refErr == nil):
			t.Fatalf("%q: Parse error %v, reference error %v", spec, err, refErr)
		}
		if !reflect.DeepEqual(p, ref) {
			t.Fatalf("%q: Parse gives %+v, the reference %+v", spec, p, ref)
		}
		if got, want := p.String(), ref.refString(); got != want {
			t.Fatalf("%q: String %q, the reference's %q", spec, got, want)
		}
	})
}

// repeatsOptional reports whether a clause of spec names an optional field
// twice.
func repeatsOptional(spec string) bool {
	for _, c := range strings.Split(spec, ",") {
		seen := map[string]bool{}
		for _, f := range strings.Split(strings.TrimSpace(c), ":")[1:] {
			for _, pre := range []string{"mb", "down", "seed", "max"} {
				if strings.HasPrefix(f, pre) {
					if seen[pre] {
						return true
					}
					seen[pre] = true
				}
			}
		}
	}
	return false
}

// refLabel is label.String as it was.
func refLabel(l label) string {
	switch l.kind {
	case 's':
		return fmt.Sprintf("slow:w%d:x%g", l.n, l.x)
	case 'c':
		return fmt.Sprintf("crash:w%d:mb%d", l.n, l.mb)
	case 'l':
		return fmt.Sprintf("link:w%d:x%g", l.n, l.x)
	}
	return fmt.Sprintf("stall:c%d:%g", l.n, l.x)
}

// refString is Plan.String as it was: it renders the plan in the Parse
// spec language, clauses in a canonical order. An empty plan renders as "".
func (p *Plan) refString() string {
	if p.Empty() {
		return ""
	}
	var clauses []string
	for _, s := range p.Slowdowns {
		c := refLabel(label{kind: 's', n: s.Worker, x: s.Factor})
		if s.FromMinibatch != 0 || s.ToMinibatch != 0 {
			from := s.FromMinibatch
			if from == 0 {
				from = 1
			}
			c += fmt.Sprintf(":mb%d-%d", from, s.ToMinibatch)
		}
		clauses = append(clauses, c)
	}
	for _, c := range p.Crashes {
		s := refLabel(label{kind: 'c', n: c.Worker, mb: c.AtMinibatch})
		if c.Downtime != 0 {
			s += ":down" + ftoa(c.Downtime)
		}
		clauses = append(clauses, s)
	}
	for _, s := range p.Stalls {
		clauses = append(clauses, fmt.Sprintf("stall:s%d:c%d:%s", s.Shard, s.AtClock, ftoa(s.Delay)))
	}
	for _, l := range p.Links {
		clauses = append(clauses, refLabel(label{kind: 'l', n: l.Worker, x: l.Factor}))
	}
	if r := p.Rand; r != nil {
		c := "rand:" + ftoa(r.Rate)
		if r.Seed != 0 {
			c += ":seed" + strconv.FormatInt(r.Seed, 10)
		}
		if r.MaxFactor != 0 {
			c += ":max" + ftoa(r.MaxFactor)
		}
		clauses = append(clauses, c)
	}
	sort.Strings(clauses)
	return strings.Join(clauses, ",")
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// refParse is Parse as it was: it builds a plan from the compact spec
// language (see the package comment for the grammar). An empty or
// all-whitespace spec yields the empty plan. The result is validated.
func refParse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		var err error
		switch strings.ToLower(parts[0]) {
		case "slow":
			err = p.refParseSlow(parts[1:])
		case "crash":
			err = p.refParseCrash(parts[1:])
		case "stall":
			err = p.refParseStall(parts[1:])
		case "link":
			err = p.refParseLink(parts[1:])
		case "rand":
			err = p.refParseRand(parts[1:])
		default:
			err = fmt.Errorf("unknown fault kind %q (want slow, crash, stall, link, or rand)", parts[0])
		}
		if err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Plan) refParseSlow(args []string) error {
	if len(args) < 2 || len(args) > 3 {
		return fmt.Errorf("want slow:w<N>:x<factor>[:mb<from>-<to>]")
	}
	w, err := prefixedInt(args[0], "w")
	if err != nil {
		return err
	}
	f, err := prefixedFloat(args[1], "x")
	if err != nil {
		return err
	}
	s := Slowdown{Worker: w, Factor: f}
	if len(args) == 3 {
		rng, ok := strings.CutPrefix(args[2], "mb")
		if !ok {
			return fmt.Errorf("minibatch range %q must start with mb", args[2])
		}
		lo, hi, ok := strings.Cut(rng, "-")
		if !ok {
			return fmt.Errorf("minibatch range %q must be mb<from>-<to> (to may be empty or 0 for open-ended)", args[2])
		}
		if s.FromMinibatch, err = strconv.Atoi(lo); err != nil {
			return fmt.Errorf("minibatch range start %q: %w", lo, err)
		}
		if hi != "" {
			if s.ToMinibatch, err = strconv.Atoi(hi); err != nil {
				return fmt.Errorf("minibatch range end %q: %w", hi, err)
			}
		}
	}
	p.Slowdowns = append(p.Slowdowns, s)
	return nil
}

func (p *Plan) refParseCrash(args []string) error {
	if len(args) < 2 || len(args) > 3 {
		return fmt.Errorf("want crash:w<N>:mb<M>[:down<seconds>]")
	}
	w, err := prefixedInt(args[0], "w")
	if err != nil {
		return err
	}
	mb, err := prefixedInt(args[1], "mb")
	if err != nil {
		return err
	}
	c := Crash{Worker: w, AtMinibatch: mb}
	if len(args) == 3 {
		if c.Downtime, err = prefixedFloat(args[2], "down"); err != nil {
			return err
		}
	}
	p.Crashes = append(p.Crashes, c)
	return nil
}

func (p *Plan) refParseStall(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("want stall:s<shard>:c<clock>:<seconds>")
	}
	s, err := prefixedInt(args[0], "s")
	if err != nil {
		return err
	}
	c, err := prefixedInt(args[1], "c")
	if err != nil {
		return err
	}
	d, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return fmt.Errorf("stall delay %q: %w", args[2], err)
	}
	p.Stalls = append(p.Stalls, PSStall{Shard: s, AtClock: c, Delay: d})
	return nil
}

func (p *Plan) refParseLink(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("want link:w<N>:x<factor>")
	}
	w, err := prefixedInt(args[0], "w")
	if err != nil {
		return err
	}
	f, err := prefixedFloat(args[1], "x")
	if err != nil {
		return err
	}
	p.Links = append(p.Links, LinkDegrade{Worker: w, Factor: f})
	return nil
}

func (p *Plan) refParseRand(args []string) error {
	if len(args) < 1 || len(args) > 3 {
		return fmt.Errorf("want rand:<rate>[:seed<N>][:max<factor>]")
	}
	if p.Rand != nil {
		return fmt.Errorf("at most one rand clause per plan")
	}
	rate, err := strconv.ParseFloat(args[0], 64)
	if err != nil {
		return fmt.Errorf("rand rate %q: %w", args[0], err)
	}
	r := &RandSpec{Rate: rate}
	for _, a := range args[1:] {
		switch {
		case strings.HasPrefix(a, "seed"):
			if r.Seed, err = strconv.ParseInt(a[len("seed"):], 10, 64); err != nil {
				return fmt.Errorf("rand seed %q: %w", a, err)
			}
		case strings.HasPrefix(a, "max"):
			if r.MaxFactor, err = prefixedFloat(a, "max"); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown rand argument %q (want seed<N> or max<factor>)", a)
		}
	}
	p.Rand = r
	return nil
}

func prefixedInt(s, prefix string) (int, error) {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, fmt.Errorf("%q must start with %q", s, prefix)
	}
	v, err := strconv.Atoi(rest)
	if err != nil {
		return 0, fmt.Errorf("%q: %w", s, err)
	}
	return v, nil
}

func prefixedFloat(s, prefix string) (float64, error) {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, fmt.Errorf("%q must start with %q", s, prefix)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return 0, fmt.Errorf("%q: %w", s, err)
	}
	return v, nil
}
