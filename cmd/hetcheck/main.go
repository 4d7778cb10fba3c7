// Command hetcheck holds the repository's benchmark regression gate and its
// source-size report:
//
//   - -bench reads `go test -bench -benchmem` output on stdin and fails if
//     any benchmark named in a committed baseline (-baseline, default
//     BENCH_sim.json,BENCH_pipeline.json,BENCH_ps.json,BENCH_serve.json,
//     BENCH_partition.json,BENCH_cosim.json,BENCH_train.json; comma-separate
//     several files to gate one stream against multiple packages'
//     baselines) regressed: ns/op beyond 25%% (the documented rule —
//     headroom for machine noise) or allocs/op beyond 5%% (allocation
//     counts are deterministic, so any real growth is a leak on the pooled
//     hot path) or B/op beyond both 5%% and 1 KiB (an allocation that
//     doubled in size without multiplying).
//     A baseline whose allocs/op is over 5%% (and at least one allocation)
//     above the measurement is stale and fails too, since it hides growth;
//     so is one whose B/op is over both 5%% and 1 KiB above it.
//     A benchmark pinned by two baseline files is rejected outright.
//   - -sloc prints the source size the ROADMAP tracks — the lines of non-test
//     .go files outside bench/ that are neither blank nor a // comment — per
//     top-level package (the root, cmd/x, internal/x with everything below
//     it) and in total. It reports, it never fails.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime 2000x \
//	  ./internal/pipeline ./internal/ps ./internal/serve \
//	  ./internal/partition ./internal/core ./internal/train |
//	  hetcheck -bench                  # benchmark regression gate
//	go test -run '^$' -bench . -benchmem ./internal/ps |
//	  hetcheck -bench -baseline BENCH_ps.json   # one package's baseline only
//	hetcheck -sloc                     # the line count CHANGES.md quotes
//
// Exit status is non-zero when any check fails; findings are listed one per
// line as file: message.
//
// The package's tests hold the module to the rest of its hygiene, so `go
// test ./...` enforces it: TestRepoIsClean to package comments, relative
// Markdown links that resolve and the CHANGES.md entry cap; TestLint to the
// internal/analysis analyzers; TestSurface to the exported names something
// reads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// defaultBaselines is every committed baseline: what -bench gates when
// -baseline is not given.
const defaultBaselines = "BENCH_sim.json,BENCH_pipeline.json,BENCH_ps.json,BENCH_serve.json,BENCH_partition.json,BENCH_cosim.json,BENCH_train.json"

func main() {
	root := flag.String("root", ".", "module root to scan")
	bench := flag.Bool("bench", false, "compare `go test -bench -benchmem` output on stdin against the baseline")
	baseline := flag.String("baseline", defaultBaselines, "comma-separated benchmark baseline files for -bench")
	sloc := flag.Bool("sloc", false, "print non-blank, non-comment lines of non-test Go source outside bench/, per package and in total")
	flag.Parse()
	if !*bench && !*sloc {
		fmt.Fprintln(os.Stderr, "hetcheck: nothing to do (pass -bench and/or -sloc)")
		os.Exit(2)
	}
	if *sloc {
		if err := printSourceLines(os.Stdout, *root); err != nil {
			fatalf("%v", err)
		}
	}

	var findings []string
	if *bench {
		paths := strings.Split(*baseline, ",")
		for i, p := range paths {
			paths[i] = filepath.Join(*root, strings.TrimSpace(p))
		}
		var err error
		if findings, err = checkBench(os.Stdin, strings.Join(paths, ",")); err != nil {
			fatalf("%v", err)
		}
	}
	if len(findings) > 0 {
		sort.Strings(findings)
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "hetcheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("hetcheck: ok")
}

// sourceLines counts, per top-level package under root ("." or the first two
// path elements, so subpackages and testdata count with their parent), the
// lines of non-test .go files that are neither blank nor start with "//". The
// bench module and hidden directories are left out.
func sourceLines(root string) (map[string]int, error) {
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || rel == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		pkg := "."
		if parts := strings.Split(filepath.ToSlash(filepath.Dir(rel)), "/"); parts[0] != "." {
			pkg = strings.Join(parts[:min(2, len(parts))], "/")
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "//") {
				counts[pkg]++
			}
		}
		return nil
	})
	return counts, err
}

// printSourceLines writes sourceLines as one "count  package" row per package
// in path order, then the total.
func printSourceLines(w io.Writer, root string) error {
	counts, err := sourceLines(root)
	if err != nil {
		return err
	}
	pkgs := make([]string, 0, len(counts))
	total := 0
	for pkg, n := range counts {
		pkgs = append(pkgs, pkg)
		total += n
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		fmt.Fprintf(w, "%7d  %s\n", counts[pkg], pkg)
	}
	fmt.Fprintf(w, "%7d  total\n", total)
	return nil
}

// benchBaseline mirrors the committed BENCH_pipeline.json layout.
type benchBaseline struct {
	Benchmarks []benchEntry `json:"benchmarks"`
}

// benchEntry is one baseline benchmark record.
type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchLineRe matches one `go test -bench -benchmem` result line, e.g.
// "BenchmarkX/case-16  2000  33101 ns/op  4432 B/op  62 allocs/op". The
// trailing -N of the name is the GOMAXPROCS suffix, stripped before matching
// against the baseline. Metrics a benchmark reports itself (b.ReportMetric,
// e.g. "4.000 frames/op") are printed between ns/op and B/op and skipped.
var benchLineRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:(?:\s+[\d.e+-]+ \S+)*?\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

// nsThreshold is the fractional ns/op growth tolerated by -bench: headroom
// for machine noise, since wall time moves with load.
const nsThreshold = 0.25

// allocsThreshold is the fractional allocs/op and B/op growth tolerated by
// -bench. Allocation counts are deterministic — unlike ns/op they do not move
// with machine load — so the tolerance only absorbs counting differences
// across Go releases, not real regressions on the pooled hot path.
const allocsThreshold = 0.05

// bytesSlack is the B/op difference, either way, that -bench tolerates on top
// of allocsThreshold. Bytes allocated once per process (a pool's first
// buffers, a connection's) are spread over the -benchtime iterations, so a
// benchmark that allocates nothing per op still reads a few hundred B/op at
// CI's 2000x and less at a baseline's longer run.
const bytesSlack = 1024

// checkBench compares benchmark results read from r against the committed
// baselines: a baseline-listed benchmark missing from the input, growing
// its ns/op beyond nsThreshold, growing its allocs/op beyond allocsThreshold,
// or growing its B/op beyond both allocsThreshold and bytesSlack is a
// finding. So is a stale baseline, one whose allocs/op exceeds the
// measurement by more than allocsThreshold and by at least one allocation,
// or whose B/op exceeds it by more than both allocsThreshold and
// bytesSlack: it would hide that much growth. Benchmarks absent from every
// baseline are ignored, so the gate composes with `-bench .` runs that cover
// more than the pinned set. baselineArg is a comma-separated list of baseline
// files (one `go test -bench` stream can then be gated against several
// packages' baselines in a single invocation); a benchmark listed by two files
// is a hard error, since the gate could not tell which record to enforce.
func checkBench(r io.Reader, baselineArg string) ([]string, error) {
	entries, err := loadBaselines(strings.Split(baselineArg, ","))
	if err != nil {
		return nil, err
	}
	type got struct{ ns, bytes, allocs float64 }
	results := map[string]got{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLineRe.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		g := got{allocs: -1}
		g.ns, _ = strconv.ParseFloat(m[2], 64)
		if m[4] != "" {
			g.bytes, _ = strconv.ParseFloat(m[3], 64)
			g.allocs, _ = strconv.ParseFloat(m[4], 64)
		}
		results[m[1]] = g
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var findings []string
	for _, e := range entries {
		b := e.benchEntry
		g, ok := results[b.Name]
		if !ok {
			findings = append(findings, fmt.Sprintf("%s: %s missing from benchmark output", e.path, b.Name))
			continue
		}
		if limit := b.NsPerOp * (1 + nsThreshold); g.ns > limit {
			findings = append(findings, fmt.Sprintf("%s: %s ns/op regressed %.0f -> %.0f (>%d%% over baseline)",
				e.path, b.Name, b.NsPerOp, g.ns, int(nsThreshold*100)))
		}
		if g.allocs < 0 {
			findings = append(findings, fmt.Sprintf("%s: %s has no allocs/op (run with -benchmem)", e.path, b.Name))
			continue
		}
		if limit := b.AllocsPerOp * (1 + allocsThreshold); g.allocs > limit {
			findings = append(findings, fmt.Sprintf("%s: %s allocs/op regressed %.0f -> %.0f (>%d%% over baseline)",
				e.path, b.Name, b.AllocsPerOp, g.allocs, int(allocsThreshold*100)))
		}
		if b.AllocsPerOp > g.allocs*(1+allocsThreshold) && b.AllocsPerOp-g.allocs >= 1 {
			findings = append(findings, fmt.Sprintf("%s: %s allocs/op baseline %.0f is stale, re-record: measured %.0f (baseline >%d%% over it)",
				e.path, b.Name, b.AllocsPerOp, g.allocs, int(allocsThreshold*100)))
		}
		if bytesBeyond(g.bytes, b.BytesPerOp) {
			findings = append(findings, fmt.Sprintf("%s: %s B/op regressed %.0f -> %.0f (>%d%% and >%d B over baseline)",
				e.path, b.Name, b.BytesPerOp, g.bytes, int(allocsThreshold*100), bytesSlack))
		}
		if bytesBeyond(b.BytesPerOp, g.bytes) {
			findings = append(findings, fmt.Sprintf("%s: %s B/op baseline %.0f is stale, re-record: measured %.0f (baseline >%d%% and >%d B over it)",
				e.path, b.Name, b.BytesPerOp, g.bytes, int(allocsThreshold*100), bytesSlack))
		}
	}
	return findings, nil
}

// bytesBeyond reports whether the B/op reading a exceeds b by more than both
// allocsThreshold and bytesSlack.
func bytesBeyond(a, b float64) bool {
	return a > b*(1+allocsThreshold) && a-b > bytesSlack
}

// sourcedEntry is a baseline record together with the file that pinned it,
// so findings name the baseline that must be updated.
type sourcedEntry struct {
	benchEntry
	path string
}

// loadBaselines loads and validates every baseline file, rejecting a
// benchmark pinned by more than one file.
func loadBaselines(paths []string) ([]sourcedEntry, error) {
	var entries []sourcedEntry
	pinnedBy := map[string]string{}
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("empty baseline path in -baseline list")
		}
		base, err := loadBaseline(p)
		if err != nil {
			return nil, err
		}
		for _, b := range base.Benchmarks {
			if prev, dup := pinnedBy[b.Name]; dup {
				return nil, fmt.Errorf("benchmark baselines %s and %s both pin %s", prev, p, b.Name)
			}
			pinnedBy[b.Name] = p
			entries = append(entries, sourcedEntry{benchEntry: b, path: p})
		}
	}
	return entries, nil
}

// loadBaseline reads and validates the committed baseline. The gate trusts
// this file completely — a malformed entry would make every comparison
// vacuous — so a baseline that is missing, unparsable, empty, or carries a
// nonsense record (blank or non-Benchmark name, duplicate name, non-positive
// ns/op, negative counters) is a hard error with a message naming the bad
// entry, not a silently green gate.
func loadBaseline(path string) (*benchBaseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("benchmark baseline %s does not exist; commit one or point -baseline at it", path)
		}
		return nil, fmt.Errorf("reading benchmark baseline: %w", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("benchmark baseline %s is malformed: %v", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchmark baseline %s lists no benchmarks", path)
	}
	seen := make(map[string]bool, len(base.Benchmarks))
	for i, b := range base.Benchmarks {
		switch {
		case b.Name == "":
			return nil, fmt.Errorf("benchmark baseline %s: entry %d has no name", path, i)
		case !strings.HasPrefix(b.Name, "Benchmark"):
			return nil, fmt.Errorf("benchmark baseline %s: entry %d name %q does not start with Benchmark", path, i, b.Name)
		case seen[b.Name]:
			return nil, fmt.Errorf("benchmark baseline %s: duplicate entry for %s", path, b.Name)
		case b.NsPerOp <= 0:
			return nil, fmt.Errorf("benchmark baseline %s: %s has non-positive ns_per_op %v", path, b.Name, b.NsPerOp)
		case b.BytesPerOp < 0 || b.AllocsPerOp < 0:
			return nil, fmt.Errorf("benchmark baseline %s: %s has negative bytes_per_op or allocs_per_op", path, b.Name)
		}
		seen[b.Name] = true
	}
	return &base, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hetcheck: "+format+"\n", args...)
	os.Exit(1)
}
