package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// child runs one workload in its own process (so peak_rss_mb is that
// workload's alone and one workload's heap never shapes another's GC) and
// parses the result line.
func child(w *workload, o options) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
	}
	if o.traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("%s: no result line: %w", w.Name, err)
	}
	return r, nil
}

// childSetup sets the workload up once more, cold, in a process of its own,
// and returns that set-up's reference seconds.
func childSetup(w *workload, o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(out)), 64)
}

// runAll is the one command that prints everything: each workload's
// end-to-end metrics from an untraced child, then every per-layer metric
// from a traced one.
func runAll(o options) int {
	status := 0
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			o.traced = traced
			r, err := child(w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hetperf: %v\n", err)
				status = 1
				continue
			}
			r.print(w, defs(traced))
			if !r.Correct {
				status = 1
			}
		}
	}
	return status
}

// aaRuns is the runs per set of the self-check, and aaSpread the within-set
// spread (max-min)/median no end-to-end metric may exceed.
const (
	aaRuns   = 5
	aaSpread = 0.10
)

// selfCheck runs two sets of aaRuns untraced runs of every workload on this
// same binary, the second set on the next seed, and fails if the benchmark
// cannot tell identical code from itself: a metric whose runs spread more
// than aaSpread within a set, or whose set medians are further apart than its
// bound. It prints the table bench/README.md carries; IQR is the statistic
// the acceptance driver applies to its ten runs, for information.
func selfCheck(o options, neighbour bool) int {
	if neighbour {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetperf: %v\n", err)
			return 1
		}
		cmd := exec.Command(exe, "-busy")
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "hetperf: starting busy neighbour: %v\n", err)
			return 1
		}
		defer func() {
			_ = cmd.Process.Kill() // it never exits on its own
			_ = cmd.Wait()         // reports the kill, which is expected
		}()
	}
	o.traced = false
	// vals[set][workload][metric] is one value per run.
	var vals [2]map[string]map[string][]float64
	status := 0
	for set := range vals {
		vals[set] = map[string]map[string][]float64{}
		for run := 0; run < aaRuns; run++ {
			for i := range workloads {
				w := &workloads[i]
				so := o
				so.seed = o.seed + int64(set)
				r, err := child(w, so)
				if err != nil {
					fmt.Fprintf(os.Stderr, "hetperf: %v\n", err)
					return 1
				}
				if !r.Correct {
					fmt.Fprintf(os.Stderr, "hetperf: %s seed %d: %d of %d ops failed\n", w.Name, so.seed, r.Failed, r.Attempted)
					status = 1
				}
				if vals[set][w.Name] == nil {
					vals[set][w.Name] = map[string][]float64{}
				}
				for name, m := range r.Metrics {
					vals[set][w.Name][name] = append(vals[set][w.Name][name], m.Value)
				}
			}
		}
	}
	fmt.Printf("| workload | metric | median A | median B | spread A | spread B | IQR A | IQR B | gap | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for i := range workloads {
		w := &workloads[i]
		for _, d := range endToEnd {
			a, b := vals[0][w.Name][d.Name], vals[1][w.Name][d.Name]
			ma, mb := median(a), median(b)
			gap := math.Abs(mb-ma) / ma
			verdict := "ok"
			if spread(a) > aaSpread || spread(b) > aaSpread || gap > d.Bound {
				verdict, status = "FAIL", 1
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %.3f | %.3f | %.3f | %.3f | %.3f | %.2f | %s |\n",
				w.Name, d.Name, ma, mb, spread(a), spread(b), iqrShare(a), iqrShare(b), gap, d.Bound, verdict)
		}
	}
	return status
}

// spread is (max-min)/median.
func spread(v []float64) float64 { return (slices.Max(v) - slices.Min(v)) / median(v) }

// iqrShare is the distance between the first and third quartiles as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives — the statistic the acceptance driver applies to ten runs.
func iqrShare(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based, exclusive method
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	mid := q(2)
	return (q(3) - q(1)) / mid
}
