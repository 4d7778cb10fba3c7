// Package analysis is hetlint's analyzer suite: five vet-style static
// checks that turn the repository's two load-bearing conventions —
// bit-identical determinism and allocation-free steady-state hot paths —
// into mechanically enforced properties.
//
// The framework mirrors the golang.org/x/tools/go/analysis shape (an
// Analyzer runs over a type-checked Pass and reports Diagnostics) but is
// built on the standard library alone, so the module stays dependency-free.
// The suite runs as a test: cmd/hetcheck's TestLint type-checks every
// production package of the module from source and fails on any finding, so
// `go test ./...` lints. The analyzers' own tests run them over testdata
// fixtures (analysistest). Both hand their packages to the driver
// subpackage, and the analyzers are agnostic to how the Pass was produced.
//
// Analyzers consult three source directives:
//
//	//hetlint:hotpath        — marks a function steady-state hot; the
//	                           hotpathalloc analyzer forbids allocation-
//	                           inducing constructs inside it
//	//hetlint:allow <check>  — suppresses one check (walltime, rand,
//	                           mapiter, alloc, senterr) on the directive's
//	                           line or the line directly below it
//
// One more rule is a test, not an analyzer, because it needs every package
// at once: cmd/hetcheck's TestSurface fails on an exported name declared
// under internal/ that no other package reads (production code, tests or
// bench/). Its waiver is
//
//	//hetlint:allow surface <reason>
//
// in the declaration's doc comment or on its line; the reason is required.
//
// Test files (*_test.go) are exempt from every check: determinism and
// allocation discipline are production-code invariants, and tests routinely
// use wall clocks, ad-hoc randomness, and fmt freely.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Analyzer is one static check. Run inspects the Pass and reports findings
// through pass.reportf; a non-nil error aborts the whole run (it signals a
// broken analyzer, not a finding).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-line description of the check.
	Doc string
	// Run performs the check on one type-checked package.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way go vet does:
// file:line:col: message [analyzer].
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Report receives each finding; the driver aggregates across passes.
	Report func(Diagnostic)

	// directives maps file -> line -> the hetlint directives on that line,
	// built lazily from the files' comments.
	directives map[string]map[int][]string
}

// reportf reports a finding at pos unless an `//hetlint:allow <check>`
// directive suppresses it. check is the allow-key (e.g. "walltime"), which
// is not always the analyzer name: one analyzer may own several keys.
func (p *Pass) reportf(pos token.Pos, check, format string, args ...any) {
	if p.allowed(check, pos) {
		return
	}
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowed reports whether an `//hetlint:allow check` directive covers pos:
// the directive suppresses findings on its own line (trailing comment) and
// on the line directly below it (standalone comment above the statement).
func (p *Pass) allowed(check string, pos token.Pos) bool {
	if p.directives == nil {
		p.buildDirectives()
	}
	position := p.Fset.Position(pos)
	lines := p.directives[position.Filename]
	want := "allow " + check
	for _, l := range []int{position.Line, position.Line - 1} {
		for _, d := range lines[l] {
			if d == want {
				return true
			}
		}
	}
	return false
}

// directivePrefix introduces a hetlint source directive. Like go:directives,
// the comment must have no space after the slashes.
const directivePrefix = "//hetlint:"

func (p *Pass) buildDirectives() {
	p.directives = make(map[string]map[int][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				position := p.Fset.Position(c.Pos())
				lines := p.directives[position.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					p.directives[position.Filename] = lines
				}
				lines[position.Line] = append(lines[position.Line], strings.TrimSpace(text))
			}
		}
	}
}

// hasDirective reports whether the function declaration carries the given
// hetlint directive (e.g. "hotpath") in its doc comment.
func hasDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if text, ok := strings.CutPrefix(c.Text, directivePrefix); ok &&
			strings.TrimSpace(text) == directive {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file a node belongs to is a _test.go file.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(filepath.Base(p.Fset.Position(pos).Filename), "_test.go")
}

// deterministicPkgs are the path segments naming packages whose outputs are
// golden-pinned or conformance-checked: any wall-clock read, unseeded random
// draw, or map-iteration-ordered output inside them breaks byte-identical
// sweeps and the sim-vs-live weight conformance.
var deterministicPkgs = map[string]bool{
	"sim":       true,
	"core":      true,
	"pipeline":  true,
	"sched":     true,
	"partition": true,
	"sweep":     true,
	"fault":     true,
	"wsp":       true,
	"serve":     true,
	"clause":    true,
}

// isDeterministic reports whether the import path names one of the
// deterministic packages (matched per path segment, so fixtures and forks
// under any module prefix classify the same way).
func isDeterministic(pkgPath string) bool {
	for _, seg := range strings.Split(pkgPath, "/") {
		if deterministicPkgs[seg] {
			return true
		}
	}
	return false
}

// pkgFunc resolves a selector expression like time.Now to (package path,
// name) when it denotes a package-level object of an imported package.
func pkgFunc(info *types.Info, e ast.Expr) (pkgPath, name string, ok bool) {
	sel, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	if _, isPkg := info.Uses[id].(*types.PkgName); !isPkg {
		return "", "", false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		detWallTime,
		detRand,
		mapIter,
		hotPathAlloc,
		sentErr,
	}
}
