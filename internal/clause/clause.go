// Package clause is the one codec behind HetPipe's colon-separated spec
// languages: fault plans (internal/fault, "slow:w0:x2:mb8-24") and serving
// traffic (internal/serve, "poisson:r120:n2000:seed7"). A clause is a kind
// name and its fields; a Row declares one kind — its name and, per field,
// the text that introduces it, where its value goes, whether it may be left
// out and the default it then takes. Parsing, the canonical form and the
// usage text an error shows all come from that row, so a kind is one
// declaration rather than a parser and a printer kept in step by hand.
//
// A field is declared by its usage: a prefix and a <placeholder>, as in
// "w<N>" or "down<seconds>", or a bare "<rate>" for an unprefixed value.
// Required fields come first and are read in order; optional ones follow in
// any order, each at most once. The canonical form writes the required
// fields in row order, then every optional field whose value is not its
// default, also in row order. Numbers are written as strconv writes them —
// decimal ints, shortest 'g' floats — so a parsed value prints as text that
// parses back to the same value.
//
// The codec knows nothing of what a kind means: how clauses are separated
// and ordered, case folding, one-per-plan kinds and every range check stay
// with the caller.
package clause

import (
	"fmt"
	"strconv"
	"strings"
)

// Field is one field of a Row: its usage text and where its value goes.
type Field struct {
	spec     string // the usage: the prefix, then the value's <placeholder>
	v        any    // *int, *int64 or *float64; a range's start
	to       *int   // a range's end
	optional bool
	def      float64
}

// Num declares a number field written as spec, e.g. Num("w<N>", &s.Worker).
func Num[T int | int64 | float64](spec string, v *T) Field { return Field{spec: spec, v: v} }

// Range declares a minibatch range written <prefix><from>-<to>, e.g.
// "mb8-24". An empty <to> reads as 0, and a zero start is written as 1, the
// first minibatch.
func Range(spec string, from, to *int) Field { return Field{spec: spec, v: from, to: to} }

// Or makes the field optional: absent, it takes def, and at def it is left
// out of the canonical form. A range is at def when both its ends are.
func (f Field) Or(def float64) Field {
	f.optional, f.def = true, def
	return f
}

// Row is one clause kind: its name and its fields, required ones first.
type Row struct {
	name   string
	fields []Field
}

// Of is the row of the kind name with the given fields.
func Of(name string, fields ...Field) Row { return Row{name, fields} }

// Parse reads a clause's fields — the text after its kind, split at ':' —
// into the row's destinations.
func (r Row) Parse(fields []string) error {
	req := 0
	for req < len(r.fields) && !r.fields[req].optional {
		req++
	}
	if len(fields) < req {
		return fmt.Errorf("want %s", r.Usage())
	}
	for i := range r.fields[req:] {
		r.fields[req+i].set(r.fields[req+i].def)
	}
	for i, s := range fields[:req] {
		if err := r.fields[i].parse(s); err != nil {
			return err
		}
	}
	var seen uint64
	for _, s := range fields[req:] {
		i := req
		for i < len(r.fields) && !strings.HasPrefix(s, r.fields[i].prefix()) {
			i++
		}
		switch {
		case i == len(r.fields):
			return fmt.Errorf("unknown field %q: want %s", s, r.Usage())
		case seen&(1<<i) != 0:
			return fmt.Errorf("%q repeats %s, which may appear once", s, r.fields[i].spec)
		}
		seen |= 1 << i
		if err := r.fields[i].parse(s); err != nil {
			return err
		}
	}
	return nil
}

// String is the canonical clause.
func (r Row) String() string {
	b := append(make([]byte, 0, 64), r.name...)
	for i := range r.fields {
		f := &r.fields[i]
		if f.optional && f.isDefault() {
			continue
		}
		b = f.appendValue(append(append(b, ':'), f.prefix()...))
	}
	return string(b)
}

// Usage is the clause's grammar, e.g. "slow:w<N>:x<factor>[:mb<from>-<to>]".
func (r Row) Usage() string {
	b := []byte(r.name)
	for _, f := range r.fields {
		if f.optional {
			b = append(append(append(b, "[:"...), f.spec...), ']')
		} else {
			b = append(append(b, ':'), f.spec...)
		}
	}
	return string(b)
}

func (f *Field) prefix() string { return f.spec[:strings.IndexByte(f.spec, '<')] }

func (f *Field) parse(s string) error {
	rest, ok := strings.CutPrefix(s, f.prefix())
	if !ok {
		return fmt.Errorf("%q must start with %q", s, f.prefix())
	}
	var err error
	switch v := f.v.(type) {
	case *int:
		if f.to == nil {
			*v, err = strconv.Atoi(rest)
			break
		}
		from, to, ok := strings.Cut(rest, "-")
		if !ok {
			return fmt.Errorf("%q must be %s", s, f.spec)
		}
		*f.to = 0
		if *v, err = strconv.Atoi(from); err == nil && to != "" {
			*f.to, err = strconv.Atoi(to)
		}
	case *int64:
		*v, err = strconv.ParseInt(rest, 10, 64)
	case *float64:
		*v, err = strconv.ParseFloat(rest, 64)
	}
	if err != nil {
		return fmt.Errorf("%q: %w", s, err)
	}
	return nil
}

// set stores x, a default, in the field (both ends of a range).
func (f *Field) set(x float64) {
	switch v := f.v.(type) {
	case *int:
		*v = int(x)
		if f.to != nil {
			*f.to = int(x)
		}
	case *int64:
		*v = int64(x)
	case *float64:
		*v = x
	}
}

func (f *Field) isDefault() bool {
	switch v := f.v.(type) {
	case *int:
		return float64(*v) == f.def && (f.to == nil || float64(*f.to) == f.def)
	case *int64:
		return float64(*v) == f.def
	}
	return *f.v.(*float64) == f.def
}

func (f *Field) appendValue(b []byte) []byte {
	switch v := f.v.(type) {
	case *int:
		if f.to == nil {
			return strconv.AppendInt(b, int64(*v), 10)
		}
		from := *v
		if from == 0 {
			from = 1
		}
		b = append(strconv.AppendInt(b, int64(from), 10), '-')
		return strconv.AppendInt(b, int64(*f.to), 10)
	case *int64:
		return strconv.AppendInt(b, *v, 10)
	}
	return strconv.AppendFloat(b, *f.v.(*float64), 'g', -1, 64)
}
