// Package driver type-checks packages for hetlint's analyzers and runs the
// suite over them, without any dependency outside the standard library.
//
// Packages under analysis are parsed from source (comments included: the
// hetlint directives live there) and type-checked against compiled export
// data through go/importer's gc importer — the same division of labor as
// cmd/go's own vet driver. In hetlint, cmd/go's vettool protocol supplies
// the export data; the analysistest harness gets its fixtures' standard
// library export data from `go list -export` (StdExports).
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

// StdExports lists the given import paths (typically standard library
// packages fixtures import) with `go list -export -deps -json` and returns
// their export data map, dependencies included.
func StdExports(paths ...string) (map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export,Error"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", paths, err, stderr.String())
	}
	m := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			ImportPath, Export string
			Error              *struct{ Err string }
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m, nil
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

// newInfo allocates the full types.Info the analyzers expect.
func newInfo() *types.Info {
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
	info := newInfo()
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
