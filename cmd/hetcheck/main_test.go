package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPackageDocs(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "good", "doc.go"), "// Package good is documented.\npackage good\n")
	write(t, filepath.Join(dir, "good", "more.go"), "package good\n")
	write(t, filepath.Join(dir, "bad", "a.go"), "package bad\n")
	// An external test package's comment must not count for the package
	// under test.
	write(t, filepath.Join(dir, "bad", "a_test.go"), "// Package bad_test is not the package.\npackage bad_test\n")
	write(t, filepath.Join(dir, "testdata", "skip.go"), "package skipped\n")

	findings, err := checkPackageDocs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "bad") {
		t.Fatalf("findings = %v, want exactly the bad package", findings)
	}
}

func TestCheckMarkdownLinks(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "exists.md"), "target\n")
	write(t, filepath.Join(dir, "doc.md"), strings.Join([]string{
		"[ok](exists.md)",
		"[ok anchor](exists.md#section)",
		"[external](https://example.com/missing.md)",
		"[anchor only](#here)",
		"[broken](missing.md)",
		"```",
		"[in code fence](also-missing.md)",
		"```",
		"`[inline code](inline-missing.md)`",
	}, "\n"))

	findings, err := checkMarkdownLinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "missing.md") {
		t.Fatalf("findings = %v, want exactly the one broken link", findings)
	}
}

func TestDotPrefixedRootIsStillScanned(t *testing.T) {
	// A walk root whose own name starts with a dot (".." being the everyday
	// case) must not trip the hidden-directory skip — only subdirectories
	// are pruned. Regression: both checks used to vacuously pass for such
	// roots, scanning zero files.
	dir := t.TempDir()
	write(t, filepath.Join(dir, ".hidden-root", "bad", "a.go"), "package bad\n")
	write(t, filepath.Join(dir, ".hidden-root", "doc.md"), "[broken](missing.md)\n")
	root := filepath.Join(dir, ".hidden-root")

	findings, err := checkPackageDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Errorf("pkgdoc findings = %v, want the undocumented package", findings)
	}
	findings, err = checkMarkdownLinks(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Errorf("link findings = %v, want the broken link", findings)
	}
}

func TestRepoIsClean(t *testing.T) {
	// The repository itself must pass every hygiene check. This test is
	// where they run: go test ./... enforces them, in CI and everywhere else.
	root := filepath.Join("..", "..")
	if findings, err := checkPackageDocs(root); err != nil || len(findings) > 0 {
		t.Errorf("package docs: err=%v findings=%v", err, findings)
	}
	if findings, err := checkMarkdownLinks(root); err != nil || len(findings) > 0 {
		t.Errorf("markdown links: err=%v findings=%v", err, findings)
	}
	raw, err := os.ReadFile(filepath.Join(root, "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	if findings := checkChangelog(string(raw)); len(findings) > 0 {
		t.Errorf("changelog: %v", findings)
	}
}

func TestCheckChangelog(t *testing.T) {
	long := strings.Repeat("x", maxEntryBytes)
	for _, tc := range []struct {
		name, text string
		want       []string
	}{
		{"empty", "", nil},
		{"old entries are grandfathered", "- PR 23: " + long + "\n- PR 9: " + long + "\n", nil},
		{"short new entry", "- PR 23: " + long + "\n- PR 24: fine\n", nil},
		{"exactly at the cap", "- PR 24: " + long[:maxEntryBytes-len("- PR 24: ")] + "\n", nil},
		{"one byte over", "- PR 24: " + long[:maxEntryBytes-len("- PR 24: ")+1] + "\n", []string{"PR 24 is 1537 bytes"}},
		{"continuation lines count", "- PR 25: a\n  " + long + "\n- PR 26: ok\n", []string{"PR 25 is"}},
		{"last entry without newline", "- PR 24: ok\n- PR 30: " + long, []string{"PR 30 is"}},
		{"every long entry is named", "- PR 24: " + long + "\n- PR 25: " + long + "\n", []string{"PR 24 is", "PR 25 is"}},
		{"mid-line marker starts no entry", "- PR 24: see - PR 99: " + long[:100] + "\n", nil},
	} {
		got := checkChangelog(tc.text)
		if len(got) != len(tc.want) {
			t.Errorf("%s: findings = %v, want %d", tc.name, got, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: finding %q does not mention %q", tc.name, got[i], w)
			}
		}
	}
}

const benchBaselineJSON = `{
  "benchmarks": [
    {"name": "BenchmarkPipelineSchedules/hetpipe-fifo", "ns_per_op": 33000, "bytes_per_op": 4432, "allocs_per_op": 62},
    {"name": "BenchmarkPipelineSchedules/gpipe", "ns_per_op": 35000, "bytes_per_op": 3712, "allocs_per_op": 54}
  ]
}`

func TestCheckBenchClean(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	write(t, base, benchBaselineJSON)
	// At par, slightly faster, and within the 25% ns/op headroom: no findings.
	// The GOMAXPROCS suffix and extra unbaselined benchmarks are ignored.
	out := strings.Join([]string{
		"goos: linux",
		"BenchmarkPipelineSchedules/hetpipe-fifo-16   2000   36000 ns/op   4432 B/op   62 allocs/op",
		"BenchmarkPipelineSchedules/gpipe-16          2000   20000 ns/op   3712 B/op   54 allocs/op",
		"BenchmarkSomethingElse-16                    2000   99999999 ns/op   1 B/op   1 allocs/op",
		"PASS",
	}, "\n")
	findings, err := checkBench(strings.NewReader(out), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("findings = %v, want none", findings)
	}
	// A benchmark's own metrics sit between ns/op and B/op; the allocation
	// columns behind them must still be read (gpipe's 80 allocs is a finding,
	// not a "no allocs/op" complaint).
	out = "BenchmarkPipelineSchedules/hetpipe-fifo-2   2000   33000 ns/op   4.000 frames/op   1.5e+03 widgets/op   4432 B/op   62 allocs/op\n" +
		"BenchmarkPipelineSchedules/gpipe-2   2000   35000 ns/op   4.000 frames/op   3712 B/op   80 allocs/op\n"
	findings, err = checkBench(strings.NewReader(out), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "gpipe allocs/op regressed") {
		t.Errorf("findings with custom metrics = %v, want exactly gpipe's allocs regression", findings)
	}
}

func TestCheckBenchRegressions(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	write(t, base, benchBaselineJSON)
	// fifo blows the ns/op threshold; gpipe grows allocs and bytes; all three
	// are findings.
	out := strings.Join([]string{
		"BenchmarkPipelineSchedules/hetpipe-fifo-16   2000   50000 ns/op   4432 B/op   62 allocs/op",
		"BenchmarkPipelineSchedules/gpipe-16          2000   35000 ns/op   9999 B/op   80 allocs/op",
	}, "\n")
	findings, err := checkBench(strings.NewReader(out), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("findings = %v, want 3", findings)
	}
	for i, want := range []string{"hetpipe-fifo ns/op regressed", "gpipe allocs/op regressed", "gpipe B/op regressed 3712 -> 9999"} {
		if !strings.Contains(findings[i], want) {
			t.Errorf("finding %d = %q, want %q", i, findings[i], want)
		}
	}
}

// TestCheckBenchBytes: B/op is a finding, either way, only beyond both 5 %
// and 1 KiB — a table that doubled in size at the same allocation count
// fails, bytes allocated once and spread over the iterations do not.
func TestCheckBenchBytes(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	write(t, base, `{"benchmarks": [
		{"name": "BenchmarkDoubled", "ns_per_op": 10, "bytes_per_op": 41000, "allocs_per_op": 140},
		{"name": "BenchmarkShrunk", "ns_per_op": 10, "bytes_per_op": 57536, "allocs_per_op": 144},
		{"name": "BenchmarkAmortised", "ns_per_op": 10, "bytes_per_op": 54, "allocs_per_op": 0},
		{"name": "BenchmarkAmortisedStale", "ns_per_op": 10, "bytes_per_op": 900, "allocs_per_op": 0},
		{"name": "BenchmarkLarge", "ns_per_op": 10, "bytes_per_op": 68233, "allocs_per_op": 1},
		{"name": "BenchmarkLargeStale", "ns_per_op": 10, "bytes_per_op": 70238, "allocs_per_op": 1}
	]}`)
	out := strings.Join([]string{
		"BenchmarkDoubled-2          2000   10 ns/op   55000 B/op   140 allocs/op", // +34 %, +14 KB
		"BenchmarkShrunk-2           2000   10 ns/op   41000 B/op   142 allocs/op", // baseline +40 %, +16 KB
		"BenchmarkAmortised-2        2000   10 ns/op     259 B/op     0 allocs/op", // +380 %, but +205 B
		"BenchmarkAmortisedStale-2   2000   10 ns/op      68 B/op     0 allocs/op", // baseline +1200 %, but +832 B
		"BenchmarkLarge-2            2000   10 ns/op   71000 B/op     1 allocs/op", // +2767 B, but +4 %
		"BenchmarkLargeStale-2       2000   10 ns/op   68000 B/op     1 allocs/op", // baseline +2238 B, but +3 %
	}, "\n")
	findings, err := checkBench(strings.NewReader(out), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 ||
		!strings.Contains(findings[0], "BenchmarkDoubled B/op regressed 41000 -> 55000") ||
		!strings.Contains(findings[1], "BenchmarkShrunk B/op baseline 57536 is stale, re-record: measured 41000") {
		t.Errorf("findings = %v, want exactly Doubled's B/op regression and Shrunk's stale B/op", findings)
	}
}

func TestCheckBenchStaleBaseline(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	write(t, base, benchBaselineJSON)
	// fifo's 62 is over 5% above its 58 measured, so it would hide four
	// allocations of growth: stale. gpipe's 54 is within 5% of 52: not.
	out := strings.Join([]string{
		"BenchmarkPipelineSchedules/hetpipe-fifo-16   2000   33000 ns/op   4432 B/op   58 allocs/op",
		"BenchmarkPipelineSchedules/gpipe-16          2000   35000 ns/op   3712 B/op   52 allocs/op",
	}, "\n")
	findings, err := checkBench(strings.NewReader(out), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "hetpipe-fifo allocs/op baseline 62 is stale, re-record: measured 58") {
		t.Errorf("findings = %v, want exactly fifo's stale baseline", findings)
	}
	// A baseline must also exceed the measurement by a whole allocation: one
	// allocation over none is stale, half of one over none is not.
	write(t, base, `{"benchmarks": [
		{"name": "BenchmarkOne", "ns_per_op": 10, "allocs_per_op": 1},
		{"name": "BenchmarkHalf", "ns_per_op": 10, "allocs_per_op": 0.5}
	]}`)
	out = "BenchmarkOne-2   2000   10 ns/op   0 B/op   0 allocs/op\nBenchmarkHalf-2   2000   10 ns/op   0 B/op   0 allocs/op\n"
	findings, err = checkBench(strings.NewReader(out), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "BenchmarkOne allocs/op baseline 1 is stale") {
		t.Errorf("findings = %v, want exactly BenchmarkOne's stale baseline", findings)
	}
}

func TestCheckBenchMissingAndNoMem(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	write(t, base, benchBaselineJSON)
	// fifo absent from the output entirely; gpipe present but run without
	// -benchmem, so its allocs cannot be checked.
	out := "BenchmarkPipelineSchedules/gpipe-16   2000   35000 ns/op\n"
	findings, err := checkBench(strings.NewReader(out), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want 2", findings)
	}
	if !strings.Contains(findings[0], "hetpipe-fifo missing") {
		t.Errorf("finding 0 = %q, want missing fifo", findings[0])
	}
	if !strings.Contains(findings[1], "-benchmem") {
		t.Errorf("finding 1 = %q, want -benchmem hint", findings[1])
	}
}

func TestCheckBenchBadBaseline(t *testing.T) {
	// Every malformed baseline must be a hard error whose message names the
	// problem — never a silently green gate.
	cases := []struct {
		name    string
		content string
		wantErr string
	}{
		{"empty list", `{"benchmarks": []}`, "lists no benchmarks"},
		{"truncated json", `{"benchmarks": [{"name": "BenchmarkX",`, "malformed"},
		{"not json at all", "BenchmarkX 2000 33000 ns/op\n", "malformed"},
		{"nameless entry", `{"benchmarks": [{"ns_per_op": 10}]}`, "has no name"},
		{"wrong prefix", `{"benchmarks": [{"name": "X", "ns_per_op": 10}]}`, "does not start with Benchmark"},
		{"zero ns_per_op", `{"benchmarks": [{"name": "BenchmarkX"}]}`, "non-positive ns_per_op"},
		{"negative allocs", `{"benchmarks": [{"name": "BenchmarkX", "ns_per_op": 10, "allocs_per_op": -1}]}`, "negative bytes_per_op or allocs_per_op"},
		{"duplicate entry", `{"benchmarks": [
			{"name": "BenchmarkX", "ns_per_op": 10},
			{"name": "BenchmarkX", "ns_per_op": 20}]}`, "duplicate entry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "base.json")
			write(t, path, tc.content)
			_, err := checkBench(strings.NewReader(""), path)
			if err == nil {
				t.Fatalf("baseline %q accepted", tc.content)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	if _, err := checkBench(strings.NewReader(""), filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing baseline file accepted")
	} else if !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("error %q does not say the baseline is missing", err)
	}
}

func TestCheckBenchMultipleBaselines(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	write(t, a, benchBaselineJSON)
	write(t, b, `{"benchmarks": [
		{"name": "BenchmarkOther/op", "ns_per_op": 1000, "bytes_per_op": 16, "allocs_per_op": 2}
	]}`)
	// One combined stream gated against both files: the regression in the
	// second baseline's benchmark is found and attributed to that file.
	out := strings.Join([]string{
		"BenchmarkPipelineSchedules/hetpipe-fifo-16   2000   33000 ns/op   4432 B/op   62 allocs/op",
		"BenchmarkPipelineSchedules/gpipe-16          2000   35000 ns/op   3712 B/op   54 allocs/op",
		"BenchmarkOther/op-16                         2000    9000 ns/op   16 B/op   2 allocs/op",
	}, "\n")
	findings, err := checkBench(strings.NewReader(out), a+","+b)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want 1", findings)
	}
	if !strings.Contains(findings[0], "b.json") || !strings.Contains(findings[0], "BenchmarkOther/op ns/op regressed") {
		t.Errorf("finding = %q, want BenchmarkOther regression attributed to b.json", findings[0])
	}
}

func TestCheckBenchCrossFileDuplicate(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	write(t, a, benchBaselineJSON)
	write(t, b, benchBaselineJSON)
	_, err := checkBench(strings.NewReader(""), a+","+b)
	if err == nil {
		t.Fatal("duplicate benchmark across baseline files accepted")
	}
	if !strings.Contains(err.Error(), "both pin") {
		t.Errorf("error %q does not name the cross-file duplicate", err)
	}
}

func TestRepoBaselineIsValid(t *testing.T) {
	// The committed baselines themselves must satisfy the validation the
	// gate applies to them, and must not pin overlapping benchmarks.
	paths := strings.Split(defaultBaselines, ",")
	for i, p := range paths {
		paths[i] = filepath.Join("..", "..", p)
	}
	if _, err := loadBaselines(paths); err != nil {
		t.Error(err)
	}
}

func TestSourceLines(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "root.go"), "// Package x.\npackage x\n\nvar a = 1 // trailing comments count with their line\n")
	write(t, filepath.Join(dir, "root_test.go"), "package x\nvar skipped = 1\n")
	write(t, filepath.Join(dir, "internal", "p", "p.go"), "package p\n\t// indented comment\n\n/* a block comment is not a // comment */\nvar b = 2\n")
	write(t, filepath.Join(dir, "internal", "p", "sub", "s.go"), "package sub\n")
	write(t, filepath.Join(dir, "internal", "p", "testdata", "src", "f.go"), "package f\nvar c = 3\n")
	write(t, filepath.Join(dir, "bench", "b.go"), "package bench\n")
	write(t, filepath.Join(dir, "internal", "bench", "kept.go"), "package bench\n")
	write(t, filepath.Join(dir, ".hidden", "h.go"), "package h\n")

	got, err := sourceLines(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{".": 2, "internal/p": 3 + 1 + 2, "internal/bench": 1}
	if len(got) != len(want) {
		t.Fatalf("packages = %v, want %v", got, want)
	}
	for pkg, n := range want {
		if got[pkg] != n {
			t.Errorf("%s: %d lines, want %d (all: %v)", pkg, got[pkg], n, got)
		}
	}
	var out strings.Builder
	if err := printSourceLines(&out, dir); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Split(strings.TrimSpace(out.String()), "\n"); len(rows) != 4 || strings.Fields(rows[3])[0] != "9" || strings.Fields(rows[3])[1] != "total" {
		t.Errorf("table = %q, want three packages and a total of 9", out.String())
	}
}
