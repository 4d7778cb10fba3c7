// Command hetcheck runs the repository's documentation hygiene checks, the
// ones CI enforces next to go vet:
//
//   - -pkgdoc parses every Go package (go/parser, AST-level like a vet
//     analyzer) and fails if any package lacks a package comment, so godoc
//     never shows an undocumented package;
//   - -links extracts relative links from every Markdown file and fails on
//     links whose target file does not exist, so the docs cannot silently rot
//     as files move; it also holds CHANGES.md entries from PR 24 on to 1,536
//     bytes each, so the record stays readable (earlier entries are
//     grandfathered);
//   - -bench reads `go test -bench -benchmem` output on stdin and fails if
//     any benchmark named in a committed baseline (-baseline, default
//     BENCH_sim.json,BENCH_pipeline.json,BENCH_ps.json,BENCH_serve.json,
//     BENCH_partition.json,BENCH_cosim.json,BENCH_train.json; comma-separate
//     several files to gate one stream against multiple packages'
//     baselines) regressed: ns/op beyond -bench-threshold (default 0.25,
//     the documented >25%% rule — headroom for machine noise) or allocs/op
//     beyond 5%% (allocation counts are deterministic, so any real growth
//     is a leak on the pooled hot path) or B/op beyond both 5%% and 1 KiB
//     (an allocation that doubled in size without multiplying).
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
//	hetcheck -pkgdoc -links            # both checks over the current module
//	hetcheck -pkgdoc -links -root ..   # explicit module root
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
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
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
	pkgdoc := flag.Bool("pkgdoc", false, "check that every Go package has a package comment")
	links := flag.Bool("links", false, "check that relative Markdown links resolve")
	bench := flag.Bool("bench", false, "compare `go test -bench -benchmem` output on stdin against the baseline")
	baseline := flag.String("baseline", defaultBaselines, "comma-separated benchmark baseline files for -bench")
	benchThreshold := flag.Float64("bench-threshold", 0.25, "fractional ns/op growth tolerated by -bench")
	sloc := flag.Bool("sloc", false, "print non-blank, non-comment lines of non-test Go source outside bench/, per package and in total")
	flag.Parse()
	if !*pkgdoc && !*links && !*bench && !*sloc {
		fmt.Fprintln(os.Stderr, "hetcheck: nothing to do (pass -pkgdoc, -links, -bench, and/or -sloc)")
		os.Exit(2)
	}
	if *sloc {
		if err := printSourceLines(os.Stdout, *root); err != nil {
			fatalf("%v", err)
		}
	}

	var findings []string
	if *pkgdoc {
		f, err := checkPackageDocs(*root)
		if err != nil {
			fatalf("%v", err)
		}
		findings = append(findings, f...)
	}
	if *links {
		f, err := checkMarkdownLinks(*root)
		if err != nil {
			fatalf("%v", err)
		}
		findings = append(findings, f...)
		if raw, err := os.ReadFile(filepath.Join(*root, "CHANGES.md")); err == nil {
			findings = append(findings, checkChangelog(string(raw))...)
		}
	}
	if *bench {
		paths := strings.Split(*baseline, ",")
		for i, p := range paths {
			paths[i] = filepath.Join(*root, strings.TrimSpace(p))
		}
		f, err := checkBench(os.Stdin, strings.Join(paths, ","), *benchThreshold)
		if err != nil {
			fatalf("%v", err)
		}
		findings = append(findings, f...)
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

// checkPackageDocs walks every directory containing Go files and reports the
// packages whose files all lack a package comment. Test files can carry the
// comment too (doc.go is just a convention), but an external _test package
// does not document the package under test.
func checkPackageDocs(root string) ([]string, error) {
	perDir := map[string]bool{} // dir -> has a package comment
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return skipDir(root, path, d)
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if _, seen := perDir[dir]; !seen {
			perDir[dir] = false
			dirs = append(dirs, dir)
		}
		if perDir[dir] {
			return nil
		}
		// Parse the file's header only: cheap, and the package comment is
		// by definition attached to the package clause.
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if perr != nil {
			return fmt.Errorf("parsing %s: %w", path, perr)
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			return nil
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			perDir[dir] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, dir := range dirs {
		if !perDir[dir] {
			findings = append(findings, fmt.Sprintf("%s: package has no package comment", dir))
		}
	}
	return findings, nil
}

// skipDir prunes hidden, testdata, and vendor directories from a walk. The
// walk root itself is never pruned, whatever it is named — a root of ".."
// (or any dot-prefixed path) must still be scanned, not silently skipped.
func skipDir(root, path string, d fs.DirEntry) error {
	if path == root {
		return nil
	}
	name := d.Name()
	if strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor" {
		return filepath.SkipDir
	}
	return nil
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

// linkRe matches inline Markdown links and images: [text](target). Reference
// definitions and autolinks are out of scope — the repo does not use them.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkMarkdownLinks reports relative links in *.md files whose target does
// not exist on disk. External schemes and pure in-page anchors are skipped;
// a relative link's own #anchor suffix is stripped before the check.
func checkMarkdownLinks(root string) ([]string, error) {
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return skipDir(root, path, d)
		}
		if !strings.HasSuffix(strings.ToLower(path), ".md") {
			return nil
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		for _, m := range linkRe.FindAllStringSubmatch(stripCodeBlocks(string(raw)), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, serr := os.Stat(resolved); serr != nil {
				findings = append(findings, fmt.Sprintf("%s: broken link %q (%s does not exist)", path, m[1], resolved))
			}
		}
		return nil
	})
	return findings, err
}

// The changelog cap: an entry is the text from a line starting "- PR <n>:" up
// to the next such line, and from capFromPR on it may be maxEntryBytes long.
const (
	capFromPR     = 24
	maxEntryBytes = 1536
)

var entryRe = regexp.MustCompile(`(?m)^- PR (\d+):`)

// checkChangelog reports the CHANGES.md entries over the cap.
func checkChangelog(text string) []string {
	var findings []string
	starts := entryRe.FindAllStringSubmatchIndex(text, -1)
	for i, m := range starts {
		end := len(text)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		pr, _ := strconv.Atoi(text[m[2]:m[3]])
		if size := len(strings.TrimRight(text[m[0]:end], "\n")); pr >= capFromPR && size > maxEntryBytes {
			findings = append(findings, fmt.Sprintf("CHANGES.md: entry for PR %d is %d bytes, over the %d-byte cap", pr, size, maxEntryBytes))
		}
	}
	return findings
}

// stripCodeBlocks blanks fenced code blocks and inline code spans so link
// syntax inside examples is not checked.
func stripCodeBlocks(s string) string {
	var out strings.Builder
	inFence := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			out.WriteString("\n")
			continue
		}
		if inFence {
			out.WriteString("\n")
			continue
		}
		// Blank inline code spans on the line.
		for {
			i := strings.IndexByte(line, '`')
			if i < 0 {
				break
			}
			j := strings.IndexByte(line[i+1:], '`')
			if j < 0 {
				break
			}
			line = line[:i] + strings.Repeat(" ", j+2) + line[i+1+j+1:]
		}
		out.WriteString(line)
		out.WriteString("\n")
	}
	return out.String()
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
// its ns/op beyond threshold, growing its allocs/op beyond allocsThreshold,
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
func checkBench(r io.Reader, baselineArg string, threshold float64) ([]string, error) {
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
		if limit := b.NsPerOp * (1 + threshold); g.ns > limit {
			findings = append(findings, fmt.Sprintf("%s: %s ns/op regressed %.0f -> %.0f (>%d%% over baseline)",
				e.path, b.Name, b.NsPerOp, g.ns, int(threshold*100)))
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
