// Package analysistest runs a hetlint analyzer over fixture packages and
// checks its diagnostics against `// want` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library alone.
//
// A fixture is a directory of Go files under testdata. Each expected
// diagnostic is declared on the offending line:
//
//	time.Now() // want `wall-clock`
//
// The quoted text (backquoted or double-quoted, several per comment allowed)
// is a regular expression matched against the diagnostic message. A fixture
// line with no want comment must produce no diagnostic, and every want must
// be matched — so each fixture proves true positives and true negatives in
// one pass.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hetpipe/internal/analysis"
	"hetpipe/internal/analysis/driver"
)

// Package names one fixture package: the directory holding its files and
// the import path to type-check it under. The path matters — analyzers
// classify deterministic packages by path segment — so fixtures choose
// paths like "fix/internal/sim" or "fix/live" to select the regime under
// test.
type Package struct {
	Path string
	Dir  string
}

// The harness's FileSet and importer, shared by every Run in a test binary so
// that the standard library packages the fixtures import are type-checked
// from source once. The source importer is not safe for concurrent use;
// stdMu serializes Runs.
var (
	stdMu sync.Mutex
	fset  = token.NewFileSet()
	std   = importer.ForCompiler(fset, "source", nil)
)

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Run loads the fixture packages in order (earlier packages are importable
// by later ones), applies the analyzer to every one, and reports mismatches
// between diagnostics and want comments through t.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...Package) {
	t.Helper()
	stdMu.Lock()
	defer stdMu.Unlock()
	locals := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := locals[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	var checked []*driver.Package
	for _, p := range pkgs {
		files, err := parseDir(p.Dir)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", p.Dir, err)
		}
		pkg, err := driver.Check(fset, imp, p.Path, files)
		if err != nil {
			t.Fatalf("fixture %s: %v", p.Dir, err)
		}
		locals[p.Path] = pkg.Types
		checked = append(checked, pkg)
	}

	diags, err := driver.Run(checked, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	matchWants(t, checked, diags)
}

// want is one expectation: a regexp pinned to a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRe extracts the quoted expectations from a want comment.
var wantRe = regexp.MustCompile("//\\s*want\\s+((?:(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")\\s*)+)")

// quotedRe splits the expectation list into individual quoted strings.
var quotedRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func matchWants(t *testing.T, pkgs []*driver.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, q := range quotedRe.FindAllString(m[1], -1) {
						text := q[1 : len(q)-1]
						if q[0] == '"' {
							if u, err := strconv.Unquote(q); err == nil {
								text = u
							}
						}
						re, err := regexp.Compile(text)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unmatched want on the diagnostic's line whose
// pattern matches, reporting whether one existed.
func claim(wants []*want, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseDir parses every .go file in dir, sorted by name for determinism.
func parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
