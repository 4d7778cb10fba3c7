package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hetpipe/internal/metrics"
	"hetpipe/internal/partition"
)

// chunkSpec renders a stage's chunk set as "lo-hi" ranges joined with "+",
// e.g. "0-5+12-17"; empty for contiguous single-chunk stages, whose Lo/Hi
// already carry the range.
func chunkSpec(st *partition.Stage) string {
	if len(st.Chunks) <= 1 {
		return ""
	}
	parts := make([]string, len(st.Chunks))
	for i := range st.Chunks {
		parts[i] = fmt.Sprintf("%d-%d", st.Chunks[i].Lo, st.Chunks[i].Hi)
	}
	return strings.Join(parts, "+")
}

// WriteJSON serializes the full sweep — grid, scenarios, structured results,
// partition plans — as indented JSON. The encoding is deterministic: the
// same grid always produces the same bytes, regardless of worker count.
func WriteJSON(w io.Writer, set *Set) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(set)
}

// csvHeader lists the flat per-scenario columns of WriteCSV. The faults and
// degradation_pct columns make the fault axis plottable directly: filter on
// faults, plot degradation_pct against the fault rate or factor. The traffic
// and latency columns do the same for the serving axis: filter on traffic,
// plot p50_sec/p95_sec/p99_sec against throughput (requests/sec for serving
// rows) for the latency-vs-offered-load curve.
var csvHeader = []string{
	"index", "id", "model", "cluster", "sync", "schedule", "interleave", "policy", "placement",
	"faults", "traffic", "d", "nm_requested", "batch", "error",
	"throughput", "degradation_pct", "fault_injections",
	"served", "p50_sec", "p95_sec", "p99_sec", "mean_batch_fill",
	"workers", "nm", "slocal", "sglobal",
	"waiting", "idle", "pushes", "max_clock_distance",
	"vw_types", "per_vw_throughput", "stage_layers",
}

// WriteCSV serializes one flat row per scenario (see csvHeader for the
// columns). List-valued fields are joined with ';' inside the cell; floats
// use the shortest round-trip decimal form, so the encoding is deterministic.
func WriteCSV(w io.Writer, set *Set) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i := range set.Results {
		r := &set.Results[i]
		sc := &r.Scenario
		var perVW []string
		for _, v := range r.PerVW {
			perVW = append(perVW, ftoa(v))
		}
		var vwTypes, stages []string
		for _, p := range r.Plans {
			vwTypes = append(vwTypes, p.GPUs)
			var parts []string
			for _, st := range p.Stages {
				if st.Chunks != "" {
					parts = append(parts, st.Chunks)
					continue
				}
				parts = append(parts, fmt.Sprintf("%d-%d", st.Lo, st.Hi))
			}
			stages = append(stages, strings.Join(parts, "|"))
		}
		interleave := sc.Interleave
		if interleave < 1 {
			interleave = 1
		}
		row := []string{
			strconv.Itoa(sc.Index), sc.ID(), sc.Model, sc.Cluster,
			sc.SyncMode, sc.Schedule, strconv.Itoa(interleave), sc.Policy, sc.Placement,
			sc.Faults, sc.Traffic,
			strconv.Itoa(sc.D), strconv.Itoa(sc.Nm), strconv.Itoa(sc.Batch),
			r.Error,
			ftoa(r.Throughput), ftoa(r.DegradationPct), strconv.Itoa(r.FaultInjections),
			strconv.Itoa(r.Served),
			ftoa(r.P50), ftoa(r.P95), ftoa(r.P99), ftoa(r.MeanBatchFill),
			strconv.Itoa(r.Workers), strconv.Itoa(r.Nm),
			strconv.Itoa(r.SLocal), strconv.Itoa(r.SGlobal),
			ftoa(r.Waiting), ftoa(r.Idle),
			strconv.Itoa(r.Pushes), strconv.Itoa(r.MaxClockDistance),
			strings.Join(vwTypes, ";"),
			strings.Join(perVW, ";"),
			strings.Join(stages, ";"),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SummaryRow ranks the best configuration found for one model/cluster pair.
type SummaryRow struct {
	// Model and Cluster identify the pair.
	Model, Cluster string
	// Best is the winning scenario's result.
	Best *Result
	// Candidates counts the scenarios tried for the pair; Failed counts
	// those that ended in an error.
	Candidates, Failed int
	// PerVW summarizes the winning configuration's per-virtual-worker
	// throughput (zero Summary for Horovod winners).
	PerVW metrics.Summary
}

// Summarize ranks each model/cluster pair's best configuration by aggregate
// throughput, best pair first: Aggregate's ranking, with each winner's full
// Result. Pairs whose every scenario failed appear at the end with a nil
// Best.
func Summarize(set *Set) []SummaryRow {
	pairs := Aggregate(set).Pairs
	rows := make([]SummaryRow, len(pairs))
	for i, p := range pairs {
		rows[i] = SummaryRow{Model: p.Model, Cluster: p.Cluster, Candidates: p.Candidates, Failed: p.Failed}
		if p.BestID != "" {
			rows[i].Best = &set.Results[p.best]
			rows[i].PerVW = metrics.Summarize(rows[i].Best.PerVW)
		}
	}
	return rows
}

// WriteSummary renders the Summarize ranking as a text table: the winning
// configuration per model/cluster pair, its throughput, staleness bounds,
// and the per-virtual-worker throughput spread.
func WriteSummary(w io.Writer, set *Set) error {
	rows := Summarize(set)
	// The config column fits the longest WSP scenario ID: model + cluster +
	// sync + schedule + policy + placement + D + Nm segments.
	if _, err := fmt.Fprintf(w, "%-11s %-9s %-62s %12s %8s %8s  %s\n",
		"MODEL", "CLUSTER", "BEST CONFIG", "SAMPLES/S", "SGLOBAL", "OK/ALL", "PER-VW THROUGHPUT"); err != nil {
		return err
	}
	for _, row := range rows {
		ok := row.Candidates - row.Failed
		if row.Best == nil {
			if _, err := fmt.Fprintf(w, "%-11s %-9s %-62s %12s %8s %5d/%-3d\n",
				row.Model, row.Cluster, "(all scenarios failed)", "-", "-", ok, row.Candidates); err != nil {
				return err
			}
			continue
		}
		sc := &row.Best.Scenario
		sglobal := "-"
		perVW := "single straggler-paced BSP group"
		if sc.SyncMode != SyncHorovod {
			sglobal = strconv.Itoa(row.Best.SGlobal)
			perVW = fmt.Sprintf("%v spread=%.3g", row.PerVW, row.PerVW.Spread())
		}
		if _, err := fmt.Fprintf(w, "%-11s %-9s %-62s %12.0f %8s %5d/%-3d  %s\n",
			row.Model, row.Cluster, sc.ID(), row.Best.Throughput, sglobal,
			ok, row.Candidates, perVW); err != nil {
			return err
		}
	}
	return nil
}
