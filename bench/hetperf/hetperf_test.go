package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
)

// TestMain runs the tests the way main runs the benchmark: on one P.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// refChecksum and memChecksum are what every call of the two kernels
// returns. The kernels are frozen: if either changes, every recorded baseline
// is void.
const (
	refChecksum = 0x40d013d11441f4c3
	memChecksum = 61345
)

func TestRefKernelsPinned(t *testing.T) {
	k := newRefKernel()
	for call := 0; call < 3; call++ {
		if got := math.Float64bits(k.run()); got != refChecksum {
			t.Fatalf("call %d: FP kernel checksum %#x, pinned %#x", call, got, uint64(refChecksum))
		}
		if got := k.chase(); got != memChecksum {
			t.Fatalf("call %d: memory kernel ended at %d, pinned %d", call, got, memChecksum)
		}
	}
	// The cycle visits every entry: memLen steps from 0 come back to 0 and
	// no fewer do.
	at, steps := k.next[0], 1
	for ; at != 0 && steps <= memLen; steps++ {
		at = k.next[at]
	}
	if steps != memLen {
		t.Fatalf("memory kernel's cycle has %d entries, want %d", steps, memLen)
	}
}

// TestSpecMatchesBenchmarkJSON holds the committed BENCHMARK.json to the
// tables in metrics.go and both to the limits of the benchmark contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(spec())
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from `hetperf -spec`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	// The bounds are ISSUE 12's. A metric too noisy for its bound is fixed in
	// the protocol, never by widening the bound here.
	wantBound := map[string]float64{
		"setup_s": 0.10, "units_per_s": 0.10, "allocs_per_unit": 0.02, "alloc_bytes_per_unit": 0.02, "peak_rss_mb": 0.10,
	}
	if len(endToEnd) != len(wantBound) {
		t.Errorf("%d end-to-end metrics, want %d", len(endToEnd), len(wantBound))
	}
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound != wantBound[d.Name] {
			t.Errorf("metric %s: bound %v, want %v", d.Name, d.Bound, wantBound[d.Name])
		}
		if d.Name == "setup_s" && (d.Unit != "s" || d.Better != lower) {
			t.Errorf("setup_s must be in seconds, lower is better")
		}
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound != 0 {
			t.Errorf("layer metric %s: unit %q, better %q, bound %v", d.Name, d.Unit, d.Better, d.Bound)
		}
	}
}

// TestEveryMetricEmitted runs every workload at smoke-test size: the
// untraced pass must emit exactly the end-to-end metrics and the traced pass
// exactly the per-layer ones, each with its unit and with no failed
// operation; and everything marked exact must repeat bit for bit.
func TestEveryMetricEmitted(t *testing.T) {
	emitted := func(r result, defs []metricDef, what string) {
		t.Helper()
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", what, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics emitted, %d specified", what, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s emitted=%v with unit %q, want %q", what, d.Name, ok, m.Unit, d.Unit)
			}
		}
	}
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		r := run(w, options{seed: 7, tiny: true, outDir: out})
		emitted(r, endToEnd, w.Name)
		for _, d := range endToEnd {
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s/%s = %v; end-to-end metrics are never zero", w.Name, d.Name, r.Metrics[d.Name].Value)
			}
		}
	}
	first := run(&workloads[0], options{seed: 7, tiny: true, traced: true, outDir: out})
	second := run(&workloads[1], options{seed: 7, tiny: true, traced: true, outDir: out})
	emitted(first, perLayer, "traced "+workloads[0].Name)
	emitted(second, perLayer, "traced "+workloads[1].Name)
	for _, d := range perLayer {
		if a, b := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value; d.exact && a != b {
			t.Errorf("%s is exact but read %v then %v", d.Name, a, b)
		}
	}
	for _, w := range workloads[:2] {
		if _, err := os.Stat(out + "/" + w.Name + ".trace.json"); err != nil {
			t.Error(err)
		}
	}
}

func TestIQRShareMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if got := iqrShare([]float64{5, 3, 1, 4, 2}); got != 1.0 {
		t.Fatalf("iqrShare = %v, want 1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1.0 {
		t.Fatalf("iqrShare = %v, want 1", got)
	}
}
