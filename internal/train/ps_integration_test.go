package train

import (
	"fmt"
	"math"
	"testing"

	"hetpipe/internal/ps"
	"hetpipe/internal/tensor"
	"hetpipe/internal/wsp"
)

// TestWSPOverRealParameterServer steps the WSP worker program against the
// actual sharded parameter-server substrate (internal/ps) with real
// gradients, and checks that the server-held global weights equal the sum of
// every worker's wave updates — the wglobal += u~ semantics of Section 5 —
// and that training over the real substrate converges like the in-memory
// co-simulation runner.
func TestWSPOverRealParameterServer(t *testing.T) {
	lt, err := DefaultTask(13)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 3
		slocal  = 2
		d       = 1
		waves   = 40
		lr      = 0.2
		shards  = 4
		servers = 2
	)
	params := wsp.Params{SLocal: slocal, D: d, Workers: workers}
	coord, err := wsp.NewCoordinator(params)
	if err != nil {
		t.Fatal(err)
	}
	waveSize := params.WaveSize()

	// Shard the flat parameter vector over two servers, round-robin.
	dim := lt.Dim()
	chunk := (dim + shards - 1) / shards
	keys := make([]string, shards)
	ranges := make([][2]int, shards)
	for i := range keys {
		keys[i] = fmt.Sprintf("shard%d", i)
		lo := i * chunk
		hi := lo + chunk
		if hi > dim {
			hi = dim
		}
		ranges[i] = [2]int{lo, hi}
	}
	pl, err := ps.RoundRobin(keys, servers)
	if err != nil {
		t.Fatal(err)
	}
	var backends []ps.Backend
	var hosts []*ps.Server
	for srv := 0; srv < servers; srv++ {
		s, err := ps.NewServer(workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range pl.KeysOn(srv) {
			var idx int
			fmt.Sscanf(k, "shard%d", &idx)
			if err := s.Register(k, make([]float64, ranges[idx][1]-ranges[idx][0])); err != nil {
				t.Fatal(err)
			}
		}
		backends = append(backends, ps.AdaptServer(s))
		hosts = append(hosts, s)
	}
	sh, err := ps.NewSharded(pl, backends)
	if err != nil {
		t.Fatal(err)
	}

	// split views v as one vector per key, in key order.
	split := func(v tensor.Vector) []tensor.Vector {
		out := make([]tensor.Vector, shards)
		for i := range keys {
			out[i] = v[ranges[i][0]:ranges[i][1]]
		}
		return out
	}

	// Each worker steps its Worker program: one sealed delta pushed per wave
	// through the sharded client, gated pulls landing in its weights in place.
	// The coordinator says who may start, so no pull ever blocks. (The loop
	// never drains, so the last wave stays unpushed: every worker pushes
	// waves-1.)
	ws := make([]*Worker, workers)
	for i := range ws {
		if ws[i], err = NewWorker(lt, i, params, lr); err != nil {
			t.Fatal(err)
		}
	}
	totalPushed := tensor.NewVector(dim)
	maxMB := waves * waveSize
	for done := false; !done; {
		done = true
		for wi, w := range ws {
			if w.Next() > maxMB || !coord.CanStart(wi, w.Next()) {
				continue
			}
			done = false
			coord.Start(wi, w.Next())
			if req := w.PullClock(); req > 0 {
				if err := sh.PullAtInto(split(w.Weights()), keys, req); err != nil {
					t.Fatal(err)
				}
				w.Pulled(req)
			}
			if mb := w.Inject(); mb > 0 && params.IsWaveEnd(mb) {
				delta := w.Delta(params.Wave(mb))
				if err := sh.PushOrdered(wi, keys, split(delta)); err != nil {
					t.Fatal(err)
				}
				totalPushed.AddInPlace(delta)
				coord.Push(wi)
			}
		}
	}

	// The server-held weights are exactly the sum of pushed wave updates
	// (w0 = 0 for this task).
	clock := hosts[0].GlobalClock()
	for _, s := range hosts {
		clock = min(clock, s.GlobalClock())
	}
	if clock < waves-d-1 {
		t.Errorf("final global clock %d, want >= %d", clock, waves-d-1)
	}
	joined := tensor.NewVector(dim)
	if err := sh.PullAtInto(split(joined), keys, clock); err != nil {
		t.Fatal(err)
	}
	for i := range joined {
		if math.Abs(joined[i]-totalPushed[i]) > 1e-9 {
			t.Fatalf("server weights diverge from pushed sum at %d: %g vs %g", i, joined[i], totalPushed[i])
		}
	}
	// And the model learned: accuracy on the server-held weights well above
	// chance (10 classes).
	if acc := lt.Accuracy(joined); acc < 0.6 {
		t.Errorf("accuracy over real PS = %.3f, want > 0.6", acc)
	}
}
