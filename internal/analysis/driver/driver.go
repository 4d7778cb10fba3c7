// Package driver loads type-checked packages for hetlint without any
// dependency outside the standard library.
//
// The loader shells out to `go list -export -deps -json`, which compiles
// (or reuses from the build cache) each dependency's export data, then
// parses the target packages from source and type-checks them against that
// export data through go/importer's gc importer. This is the same division
// of labor as cmd/go's own vet driver: source + comments for the packages
// under analysis, compiled export summaries for everything they import.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"hetpipe/internal/analysis"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// ListedPackage is the subset of `go list -json` output the loader reads.
type ListedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// List runs `go list -export -deps -json` over the patterns in dir and
// returns the decoded package records (targets and dependencies).
func List(dir string, patterns ...string) ([]ListedPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []ListedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p ListedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Exports extracts the import path -> export data file map from a listing.
func Exports(pkgs []ListedPackage) map[string]string {
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m
}

// StdExports lists the given import paths (typically standard library
// packages fixtures import) and returns their export data map, dependencies
// included.
func StdExports(dir string, paths ...string) (map[string]string, error) {
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	pkgs, err := List(dir, paths...)
	if err != nil {
		return nil, err
	}
	return Exports(pkgs), nil
}

// Load lists the patterns and returns every non-dependency, non-standard
// package parsed (with comments — hetlint directives live there) and
// type-checked against its dependencies' export data.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := List(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset, Exports(listed), nil)
	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard {
			continue
		}
		pkg, err := CheckFiles(fset, imp, lp.ImportPath, fileJoin(lp.Dir, lp.GoFiles))
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func fileJoin(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

// CheckFiles parses the named files and type-checks them as import path,
// returning the analysis-ready package.
func CheckFiles(fset *token.FileSet, imp types.Importer, path string, files []string) (*Package, error) {
	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
	}
	return Check(fset, imp, path, parsed)
}

// NewInfo allocates the full types.Info the analyzers expect.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Check type-checks already-parsed files (the analysistest harness's entry
// point; fixtures are parsed from testdata, not go list).
func Check(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*Package, error) {
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Importer resolves imports from compiled export data, with an optional
// overlay of locally type-checked packages (fixture dependencies) consulted
// first. It satisfies types.ImporterFrom.
type Importer struct {
	base   types.ImporterFrom
	locals map[string]*types.Package
	// remap translates source import paths to canonical ones before export
	// lookup (the vettool protocol's ImportMap); nil means identity.
	remap map[string]string
}

// NewImporter builds an Importer over an import path -> export data file
// map and an optional local package overlay.
func NewImporter(fset *token.FileSet, exports map[string]string, locals map[string]*types.Package) *Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	base, _ := importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return &Importer{base: base, locals: locals}
}

// SetRemap installs a source-path -> canonical-path translation (vettool
// ImportMap).
func (i *Importer) SetRemap(m map[string]string) { i.remap = m }

// Import implements types.Importer.
func (i *Importer) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (i *Importer) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := i.locals[path]; ok {
		return p, nil
	}
	if canon, ok := i.remap[path]; ok {
		path = canon
	}
	if i.base == nil {
		return nil, fmt.Errorf("importer unavailable for %q", path)
	}
	return i.base.ImportFrom(path, dir, mode)
}

// Run applies each analyzer to each package and returns the findings in
// deterministic (file, line, column, analyzer) order.
func Run(pkgs []*Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
