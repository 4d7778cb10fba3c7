package serve

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"hetpipe/internal/core"
	"hetpipe/internal/hw"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
)

// TestScaledTimesScaleTheServe is ROADMAP 14(a)'s warm-up on serving: with
// every plan time a multiple of 8 quanta, scaling the plan times by 2^k
// (k = -3..3) and every traffic time with them — open-loop rates divided by
// 2^k, diurnal periods, bursty windows and closed-loop think times
// multiplied by it — must scale every request's arrival and reply, the
// duration and each latency figure by exactly 2^k and the throughput by
// 2^-k, and leave every count, fill and utilization alone. A time computed
// other than from the plan and the traffic spec fails it.
func TestScaledTimesScaleTheServe(t *testing.T) {
	specs := []string{
		"poisson:r80:n300:seed7:crit0.2",
		"diurnal:r80:a0.6:p4:n300:seed7:crit0.2",
		"bursty:r40:x5:on1:off3:n300:seed7:crit0.2",
		"closed:u16:t0.02:n300:seed7:crit0.2",
	}
	eng := sim.New()
	for _, schedule := range []string{sched.NameFIFO, sched.NameOverlap} {
		base := scaledDeployment(deployment(t, schedule, hw.NodePartition, 4), 1)
		for _, spec := range specs {
			tr := traffic(t, spec)
			want, err := RunOn(context.Background(), eng, base, tr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want.Trace = slices.Clone(want.Trace)
			want.Replicas = slices.Clone(want.Replicas)
			for k := -3; k <= 3; k++ {
				f := math.Ldexp(1, k)
				got, err := RunOn(context.Background(), eng, scaledDeployment(base, f), scaledTraffic(tr, f), Options{})
				if err != nil {
					t.Fatal(err)
				}
				scaled := *want
				scaled.Traffic = scaledTraffic(tr, f).String()
				scaled.Trace = slices.Clone(want.Trace)
				for i := range scaled.Trace {
					scaled.Trace[i].At *= f
					scaled.Trace[i].Done *= f
				}
				scaled.Duration, scaled.ThroughputRPS = want.Duration*f, want.ThroughputRPS/f
				for _, l := range []*LatencySummary{&scaled.Latency, &scaled.Critical, &scaled.Bulk} {
					l.Mean, l.P50, l.P95, l.P99, l.Max = l.Mean*f, l.P50*f, l.P95*f, l.P99*f, l.Max*f
				}
				if !reflect.DeepEqual(*got, scaled) {
					t.Fatalf("%s %s scaled by 2^%d:\n got %+v\nwant %+v", schedule, spec, k,
						summaryOf(got), summaryOf(&scaled))
				}
			}
		}
	}
}

// summaryOf is r without its trace, for a readable failure.
func summaryOf(r *Result) Result {
	s := *r
	s.Trace = nil
	return s
}

// scaledDeployment copies d with every chunk time rounded to a multiple of 8
// quanta and then multiplied by f.
func scaledDeployment(d *core.Deployment, f float64) *core.Deployment {
	round := func(x float64) float64 { return f * math.Round(x*(1<<37)) / (1 << 37) }
	out := *d
	out.VWs = make([]*core.VWPlan, len(d.VWs))
	for w, vp := range d.VWs {
		plan := *vp.Plan
		plan.Stages = slices.Clone(plan.Stages)
		for s := range plan.Stages {
			chunks := slices.Clone(plan.Stages[s].Chunks)
			for i := range chunks {
				c := &chunks[i]
				c.FwdTime, c.BwdTime = round(c.FwdTime), round(c.BwdTime)
				c.RecvActTime, c.RecvGradTime = round(c.RecvActTime), round(c.RecvGradTime)
			}
			plan.Stages[s].Chunks = chunks
		}
		scaled := *vp
		scaled.Plan = &plan
		out.VWs[w] = &scaled
	}
	return &out
}

// scaledTraffic copies tr with every time in it multiplied by f and every
// rate divided by f.
func scaledTraffic(tr *Traffic, f float64) *Traffic {
	c := *tr
	c.Rate /= f
	c.Period *= f
	c.On *= f
	c.Off *= f
	c.Think *= f
	return &c
}
