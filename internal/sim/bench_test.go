package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngine is the bare engine at the shape of hetperf's sim.floor
// probe: depth self-rescheduling events, of which every eighth firing also
// schedules and cancels one, on a warm engine. One op is a run of 4096
// events; nothing but the engine and a counter runs, so ns/op / 4096 is the
// least a simulated event can cost at that queue depth. A warm run allocates
// nothing.
func BenchmarkEngine(b *testing.B) {
	const events = 4096
	for _, depth := range []int{8, 64} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			e := New()
			var left int
			var id int32
			fire := func(a, c int32, x float64) {
				if left--; left < depth {
					return
				}
				e.AfterID(Duration(x), id, a+1, c, x)
				if a%8 == 0 {
					e.Cancel(e.AfterID(Duration(2*x), id, a, c, x))
				}
			}
			run := func() {
				e.Reset()
				left = events
				id = e.Register(fire)
				for i := range depth {
					e.AfterID(Duration(i)*0.37, id, int32(i), 0, 1+float64(i)*0.01)
				}
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
				if e.Fired() != events {
					b.Fatalf("fired %d events, want %d", e.Fired(), events)
				}
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				run()
			}
		})
	}
}
