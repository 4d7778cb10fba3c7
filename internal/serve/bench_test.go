package serve

import (
	"context"
	"testing"

	"hetpipe/internal/hw"
	"hetpipe/internal/sched"
	"hetpipe/internal/sim"
)

// benchServe runs one full serving run per op on one warm engine, against
// the paper cluster's ED deployment.
func benchServe(b *testing.B, schedule, spec string) {
	dep := deployment(b, schedule, hw.EqualDistribution, 4)
	tr, err := ParseTraffic(spec)
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.New()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOn(ctx, eng, dep, tr, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePoisson measures one serving run end to end — 500 Poisson
// requests through the continuous-batching admission layer across 4 replicas
// — on one warm engine, so a regression in the admission or routing hot path
// shows up against the committed BENCH_serve.json baseline.
func BenchmarkServePoisson(b *testing.B) {
	benchServe(b, sched.NameFIFO, "poisson:r100:n500:crit0.2")
}

// BenchmarkServeClosedLoop measures the closed-loop generator's runtime
// side: 500 requests from a 32-user population with pre-drawn think times.
func BenchmarkServeClosedLoop(b *testing.B) {
	benchServe(b, sched.NameFIFO, "closed:u32:t0.01:n500")
}

// BenchmarkServeOverlap exercises the overlapped-receive path, whose
// transfers ride engine timers instead of the stage resources.
func BenchmarkServeOverlap(b *testing.B) {
	benchServe(b, sched.NameOverlap, "poisson:r100:n500")
}

// BenchmarkServeLarge drains 20,000 requests per op, where the three
// benchmarks above drain 500: at that size run set-up (a couple of hundred
// allocations) no longer hides what a run pays per request — the request
// trace, the latency ordering, the arrival merge. One class and two (the
// summariser sorts each class on its own), open loop and closed.
func BenchmarkServeLarge(b *testing.B) {
	for _, tc := range []struct{ name, spec string }{
		{"poisson", "poisson:r160:n20000"},
		{"poisson-crit0.2", "poisson:r160:n20000:crit0.2"},
		{"closed", "closed:u32:t0.05:n20000"},
	} {
		b.Run(tc.name, func(b *testing.B) { benchServe(b, sched.NameFIFO, tc.spec) })
	}
}
