package sweep

import (
	"context"
	"fmt"
	"io"
	"sort"

	"hetpipe/internal/metrics"
)

// ThroughputStats is the throughput distribution over a sweep's successful
// scenarios: extremes, mean, and nearest-rank percentiles.
type ThroughputStats struct {
	// N counts successful scenarios.
	N int `json:"n"`
	// Min, Max, and Mean summarize the distribution; zero when N == 0.
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	// P50, P90, and P99 are nearest-rank percentiles (the smallest observed
	// throughput with at least that fraction of scenarios at or below it).
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// PairRank ranks one model/cluster pair's best configuration, the streaming
// counterpart of summaryRow: only the winner's identity and throughput are
// retained, not its full Result.
type PairRank struct {
	Model   string `json:"model"`
	Cluster string `json:"cluster"`
	// BestID is the winning scenario's ID; empty when every scenario of the
	// pair failed.
	BestID string `json:"bestId,omitempty"`
	// BestThroughput is the winner's aggregate samples/sec.
	BestThroughput float64 `json:"bestThroughput,omitempty"`
	// Candidates counts the pair's scenarios; Failed counts those that ended
	// in an error.
	Candidates int `json:"candidates"`
	Failed     int `json:"failed"`
	// best is the winner's index among the reduced scenarios, when BestID is
	// set: Summarize reads the winning Result there.
	best int
}

// StreamSummary is the bounded-memory outcome of RunStream: counts, the
// throughput distribution, and the per-pair ranking — everything the summary
// views need, with no per-scenario rows. It is byte-for-byte reproducible:
// the same grid yields the same serialized summary at any worker count.
type StreamSummary struct {
	// Scenarios counts the grid's cells; Failures those that errored.
	Scenarios int `json:"scenarios"`
	Failures  int `json:"failures"`
	// Throughput summarizes the successful scenarios' aggregate throughput.
	Throughput ThroughputStats `json:"throughput"`
	// Pairs ranks each model/cluster pair's best configuration, best pair
	// first (failed-only pairs last), as Summarize does.
	Pairs []PairRank `json:"pairs"`
}

// RunStream expands the grid and simulates every scenario like Run, but
// aggregates on the fly instead of materializing a Result row per scenario:
// memory stays bounded by the grid's axes (scenarios, families, pairs) rather
// than by rows carrying partition plans and per-VW vectors, so grids with
// 10^5+ cells sweep in a fixed footprint. Per-scenario failures are counted,
// not recorded; Options.OnResult still observes every transient Result for
// progress reporting. Degradation against fault-free twins is a row-level
// metric and is not part of the summary.
//
// Determinism guarantee: aggregation is deferred to a final pass in scenario
// index order, so the summary is identical — bit for bit — whatever
// Options.Workers is, exactly like Run's row output.
func RunStream(ctx context.Context, g Grid, opt Options) (*StreamSummary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	scenarios, err := g.Expand()
	if err != nil {
		return nil, err
	}
	// One throughput and one failure flag per scenario is the whole retained
	// state: the Result rows themselves live only inside their worker's loop
	// iteration.
	thr := make([]float64, len(scenarios))
	failed := make([]bool, len(scenarios))
	if _, err := each(ctx, scenarios, opt, func(i int, r Result) {
		thr[i], failed[i] = r.Throughput, r.Error != ""
	}); err != nil {
		return nil, err
	}
	return summarizeStream(scenarios, thr, failed), nil
}

// aggregate reduces a materialized sweep to the same summary RunStream
// produces, from identical inputs in identical (index) order — the two are
// byte-for-byte interchangeable, which is what lets tests pin the streaming
// path against the materialized one.
func aggregate(set *Set) *StreamSummary {
	scenarios := make([]Scenario, len(set.Results))
	thr := make([]float64, len(set.Results))
	failed := make([]bool, len(set.Results))
	for i := range set.Results {
		r := &set.Results[i]
		scenarios[i] = r.Scenario
		thr[i] = r.Throughput
		failed[i] = r.Error != ""
	}
	return summarizeStream(scenarios, thr, failed)
}

// summarizeStream is the shared deterministic reduction: a single pass in
// scenario index order plus one sort of the successful throughputs.
func summarizeStream(scenarios []Scenario, thr []float64, failed []bool) *StreamSummary {
	out := &StreamSummary{Scenarios: len(scenarios)}
	type pairKey struct{ model, cluster string }
	byPair := map[pairKey]int{}
	var ok []float64
	sum := 0.0
	for i := range scenarios {
		sc := &scenarios[i]
		k := pairKey{sc.Model, sc.Cluster}
		pi, seen := byPair[k]
		if !seen {
			pi = len(out.Pairs)
			byPair[k] = pi
			out.Pairs = append(out.Pairs, PairRank{Model: k.model, Cluster: k.cluster})
		}
		p := &out.Pairs[pi]
		p.Candidates++
		if failed[i] {
			out.Failures++
			p.Failed++
			continue
		}
		ok = append(ok, thr[i])
		sum += thr[i]
		if p.BestID == "" || thr[i] > p.BestThroughput {
			p.BestID, p.BestThroughput, p.best = sc.ID(), thr[i], i
		}
	}
	if n := len(ok); n > 0 {
		sort.Float64s(ok)
		out.Throughput = ThroughputStats{
			N: n, Min: ok[0], Max: ok[n-1], Mean: sum / float64(n),
			P50: metrics.NearestRank(ok, 50), P90: metrics.NearestRank(ok, 90), P99: metrics.NearestRank(ok, 99),
		}
	}
	sort.SliceStable(out.Pairs, func(i, j int) bool {
		ti, tj := -1.0, -1.0
		if out.Pairs[i].BestID != "" {
			ti = out.Pairs[i].BestThroughput
		}
		if out.Pairs[j].BestID != "" {
			tj = out.Pairs[j].BestThroughput
		}
		return ti > tj
	})
	return out
}

// WriteStreamSummary renders the streaming summary as a text table: overall
// counts, the throughput distribution, and the per-pair ranking.
func WriteStreamSummary(w io.Writer, s *StreamSummary) error {
	if _, err := fmt.Fprintf(w, "scenarios=%d failures=%d\n", s.Scenarios, s.Failures); err != nil {
		return err
	}
	t := s.Throughput
	if t.N > 0 {
		if _, err := fmt.Fprintf(w, "throughput: n=%d min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g mean=%.4g\n",
			t.N, t.Min, t.P50, t.P90, t.P99, t.Max, t.Mean); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-11s %-9s %-62s %12s %8s\n",
		"MODEL", "CLUSTER", "BEST CONFIG", "SAMPLES/S", "OK/ALL"); err != nil {
		return err
	}
	for _, p := range s.Pairs {
		cfg, rate := p.BestID, fmt.Sprintf("%.0f", p.BestThroughput)
		if cfg == "" {
			cfg, rate = "(all scenarios failed)", "-"
		}
		if _, err := fmt.Fprintf(w, "%-11s %-9s %-62s %12s %5d/%-3d\n",
			p.Model, p.Cluster, cfg, rate, p.Candidates-p.Failed, p.Candidates); err != nil {
			return err
		}
	}
	return nil
}
