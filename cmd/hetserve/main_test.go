package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hetpipe"
	"hetpipe/internal/core"
	"hetpipe/internal/sweep"
)

// row is one deployment named the three ways the repository can name one.
type row struct {
	model, policy, schedule string
	local                   bool
	interleave              int
	specs                   []string // explicit specs: no sweep cell (the grid has no specs axis) and no hetserve flag
	nm                      int
}

func (r row) String() string {
	return fmt.Sprintf("%s/%s%v/%s/local=%v/v%d", r.model, r.policy, r.specs, r.schedule, r.local, r.interleave)
}

// answer is what the three doors must agree on.
type answer struct {
	nm         int
	cuts       string // per virtual worker "lo-hi+lo-hi/...", joined by " | "
	throughput float64
}

func viaNew(t *testing.T, r row) answer {
	opts := []hetpipe.Option{
		hetpipe.WithModel(r.model), hetpipe.WithSchedule(r.schedule), hetpipe.WithNm(r.nm),
		hetpipe.WithLocalPlacement(r.local), hetpipe.WithInterleave(r.interleave),
	}
	if r.specs != nil {
		opts = append(opts, hetpipe.WithSpecs(r.specs...))
	} else {
		opts = append(opts, hetpipe.WithPolicy(r.policy))
	}
	dep, err := hetpipe.New(opts...)
	if err != nil {
		t.Fatalf("%v: New: %v", r, err)
	}
	res, err := dep.Simulate(context.Background())
	if err != nil {
		t.Fatalf("%v: Simulate: %v", r, err)
	}
	var vws []string
	for _, p := range dep.Plans() {
		var stages []string
		for _, st := range p.Stages {
			var chunks []string
			for _, c := range st.Chunks {
				chunks = append(chunks, fmt.Sprintf("%d-%d", c[0], c[1]))
			}
			stages = append(stages, strings.Join(chunks, "+"))
		}
		vws = append(vws, strings.Join(stages, "/"))
	}
	return answer{dep.Nm(), strings.Join(vws, " | "), res.Throughput}
}

func viaSweep(t *testing.T, r row) answer {
	g := sweep.Grid{
		Models: []string{r.model}, Clusters: []string{"paper"}, Policies: []string{r.policy},
		Schedules: []string{r.schedule}, NmValues: []int{r.nm},
	}
	if r.local {
		g.Placements = []string{sweep.PlacementLocal}
	}
	if r.interleave > 1 {
		g.Interleaves = []int{r.interleave}
	}
	set, err := sweep.Run(context.Background(), g, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatalf("%v: sweep.Run: %v", r, err)
	}
	if len(set.Results) != 1 || set.Results[0].Error != "" {
		t.Fatalf("%v: sweep results = %+v, want one clean cell", r, set.Results)
	}
	res := set.Results[0]
	var vws []string
	for _, p := range res.Plans {
		var stages []string
		for _, st := range p.Stages {
			if st.Chunks != "" {
				stages = append(stages, st.Chunks)
			} else {
				stages = append(stages, fmt.Sprintf("%d-%d", st.Lo, st.Hi))
			}
		}
		vws = append(vws, strings.Join(stages, "/"))
	}
	return answer{res.Nm, strings.Join(vws, " | "), res.Throughput}
}

func viaFlags(t *testing.T, r row) answer {
	placement := "default"
	if r.local {
		placement = "local"
	}
	sp, err := spec(r.model, "paper", r.policy, r.schedule, placement, r.interleave, r.nm, 0)
	if err != nil {
		t.Fatalf("%v: spec: %v", r, err)
	}
	sp.Specs = strings.Join(r.specs, ",")
	dep, err := sp.Resolve()
	if err != nil {
		t.Fatalf("%v: Resolve: %v", r, err)
	}
	mr, err := dep.Simulate(context.Background(), core.SimOptions{})
	if err != nil {
		t.Fatalf("%v: Simulate: %v", r, err)
	}
	var vws []string
	for _, vp := range dep.VWs {
		var stages []string
		for i := range vp.Plan.Stages {
			var chunks []string
			for _, c := range vp.Plan.Stages[i].Chunks {
				chunks = append(chunks, fmt.Sprintf("%d-%d", c.Lo, c.Hi))
			}
			stages = append(stages, strings.Join(chunks, "+"))
		}
		vws = append(vws, strings.Join(stages, "/"))
	}
	return answer{dep.Nm, strings.Join(vws, " | "), mr.Aggregate}
}

// hetpipe.New, a one-cell sweep and the spec hetserve builds from its flags
// are one resolver: the same Nm, the same cuts, bit-equal throughput.
func TestThreeDoorsOneDeployment(t *testing.T) {
	var rows []row
	for _, m := range []string{"vgg19", "resnet152"} {
		for _, p := range []string{"NP", "ED", "HD"} {
			for _, s := range []string{"hetpipe-fifo", "1f1b"} {
				rows = append(rows, row{model: m, policy: p, schedule: s})
			}
		}
	}
	rows = append(rows,
		row{model: "vgg19", policy: "ED", schedule: "hetpipe-fifo", local: true},
		row{model: "resnet152", policy: "ED", schedule: "interleaved", interleave: 2},
		row{model: "resnet152", schedule: "hetpipe-fifo", specs: []string{"VRQ", "VRQ", "VRQ", "VRQ"}, nm: 4},
	)
	for _, r := range rows {
		want := viaNew(t, r)
		if want.cuts == "" || want.nm < 1 || want.throughput <= 0 {
			t.Fatalf("%v: degenerate answer %+v", r, want)
		}
		if got := viaFlags(t, r); got != want {
			t.Errorf("%v: hetserve's spec resolves to\n %+v\nNew to\n %+v", r, got, want)
		}
		if r.specs != nil {
			continue
		}
		if got := viaSweep(t, r); got != want {
			t.Errorf("%v: the sweep cell resolves to\n %+v\nNew to\n %+v", r, got, want)
		}
	}
}

// hetserve validates like hetpipe.New: same sentinels, same messages.
func TestFlagsValidateLikeNew(t *testing.T) {
	for _, tc := range []struct {
		name                             string
		model, policy, schedule, placing string
		interleave                       int
		want                             error
		msg                              string
	}{
		{"V=2 on 1f1b", "vgg19", "NP", "1f1b", "default", 2, core.ErrBadInterleave, `schedule "1f1b" cannot run V=2`},
		{"negative interleave", "vgg19", "NP", "", "default", -3, core.ErrBadInterleave, "-3 (must be >= 0)"},
		{"unknown model", "lenet", "NP", "", "default", 0, core.ErrUnknownModel, `"lenet"`},
		{"unknown schedule", "vgg19", "NP", "zigzag", "default", 0, core.ErrUnknownSchedule, `"zigzag"`},
		{"unknown policy", "vgg19", "XX", "", "default", 0, core.ErrUnknownPolicy, `"XX"`},
		{"no policy", "vgg19", "", "", "default", 0, core.ErrNoAllocation, ""},
		{"unknown placement", "vgg19", "NP", "", "diagonal", 0, nil, `unknown placement "diagonal"`},
	} {
		sp, err := spec(tc.model, "paper", tc.policy, tc.schedule, tc.placing, tc.interleave, 0, 0)
		if err == nil {
			_, err = sp.Resolve()
		}
		if err == nil || !strings.Contains(err.Error(), tc.msg) || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: error = %v, want %v mentioning %q", tc.name, err, tc.want, tc.msg)
			continue
		}
		if tc.want == nil {
			continue
		}
		// The library fails the same way, byte for byte.
		_, nerr := hetpipe.New(hetpipe.WithModel(tc.model), hetpipe.WithPolicy(tc.policy),
			hetpipe.WithSchedule(tc.schedule), hetpipe.WithInterleave(tc.interleave))
		if nerr == nil || nerr.Error() != err.Error() {
			t.Errorf("%s: New says %v, hetserve %v", tc.name, nerr, err)
		}
	}
}
