package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"hetpipe/internal/analysis/driver"
)

// TestSurface holds internal/ to the names something else reads. Every
// exported package-level object, and every exported method of an exported
// type, declared under internal/ must be read by another package: the
// module's production code, another package's tests, or bench/. A package's
// own tests do not count. Also read are a type reached through the type of
// something read, a method that implements an interface method, and an Err*
// sentinel (senterr governs those). Anything else is deleted, unexported, or
// waived by `//hetlint:allow surface <reason>` in its doc comment or on its
// line.
func TestSurface(t *testing.T) {
	s := loadScan(t)
	for _, c := range surfaceClasses {
		t.Logf("%-34s %4d", c, len(s.byClass[c]))
	}
	t.Logf("%-34s %4d", "exported in internal/", s.total)
	t.Logf("read by bench/ and by no production code (%d): %s", len(s.benchPinned), strings.Join(s.benchPinned, " "))
	for _, f := range s.findings {
		t.Error(f)
	}
}

// scan is the one source load of both modules that TestSurface and TestLint
// share: the standard library and every package are type-checked once per
// test binary.
var scan struct {
	once sync.Once
	s    *surfaceScan
	err  error
}

// loadScan returns the shared load, skipping the test under -short.
func loadScan(t *testing.T) *surfaceScan {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks both modules from source")
	}
	scan.once.Do(func() { scan.s, scan.err = scanSurface(filepath.Join("..", "..")) })
	if scan.err != nil {
		t.Fatal(scan.err)
	}
	return scan.s
}

// The classes a scanned name falls in, in the order the log lists them; a
// name takes the first that applies.
const (
	classCode      = "read by other packages' code"
	classInterface = "implements an interface method"
	classReached   = "reached through a read type"
	classTests     = "read by other packages' tests only"
	classBench     = "read by bench/ only"
	classSentinel  = "Err* sentinel"
	classWaived    = "waived"
	classUnread    = "unread"
)

// surfaceDirective waives one name; the reason follows it on the line.
const surfaceDirective = "//hetlint:allow surface"

var surfaceClasses = []string{classCode, classInterface, classReached, classTests, classBench, classSentinel, classWaived, classUnread}

// A reader is who reads an object from outside its package.
type reader uint8

const (
	byCode reader = 1 << iota
	byTests
	byBench
)

type surfaceScan struct {
	root    string
	fset    *token.FileSet
	std     types.Importer
	mods    [][2]string // module path, directory; bench/ first, as the longer path
	files   map[string]*ast.File
	prod    map[string]*driver.Package // production files, full types.Info
	reads   map[token.Pos]reader
	objs    map[token.Pos]types.Object
	reached map[token.Pos]bool
	// implements holds the methods that implement an interface method.
	implements map[token.Pos]bool

	total       int
	byClass     map[string][]string
	benchPinned []string // names bench/ reads and no production code does
	findings    []string
}

// scanSurface type-checks the module at root and bench/ beside it from
// source, honouring build constraints, and classifies the exported names
// declared under internal/.
func scanSurface(root string) (*surfaceScan, error) {
	s := &surfaceScan{
		root:    root,
		fset:    token.NewFileSet(),
		mods:    [][2]string{{"hetpipe/bench", filepath.Join(root, "bench")}, {"hetpipe", root}},
		files:   map[string]*ast.File{},
		prod:    map[string]*driver.Package{},
		reads:   map[token.Pos]reader{},
		objs:    map[token.Pos]types.Object{},
		reached: map[token.Pos]bool{},
		byClass: map[string][]string{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	var paths []string
	for _, m := range s.mods {
		err := filepath.WalkDir(m[1], func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != m[1] {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if err := skipDir(m[1], path, d); err != nil {
				return err
			}
			rel, err := filepath.Rel(m[1], path)
			if err != nil {
				return err
			}
			paths = append(paths, filepath.ToSlash(filepath.Join(m[0], rel)))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		if err := s.check(path); err != nil {
			return nil, err
		}
	}
	for _, obj := range s.objs {
		s.reach(obj.Type())
	}
	s.implements = s.implementations()
	for _, path := range paths {
		if pkg := s.prod[path]; pkg != nil && strings.HasPrefix(path, "hetpipe/internal/") {
			s.classify(pkg.Types)
		}
	}
	for _, names := range s.byClass {
		sort.Strings(names)
	}
	sort.Strings(s.benchPinned)
	sort.Strings(s.findings)
	return s, nil
}

// dir maps a module import path to its directory.
func (s *surfaceScan) dir(path string) (string, bool) {
	for _, m := range s.mods {
		if rel, ok := strings.CutPrefix(path, m[0]); ok && (rel == "" || rel[0] == '/') {
			return filepath.Join(m[1], filepath.FromSlash(rel)), true
		}
	}
	return "", false
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load type-checks the production files of a module package, with the
// full types.Info the analyzers read.
func (s *surfaceScan) load(path string) (*types.Package, error) {
	if pkg, ok := s.prod[path]; ok {
		return pkg.Types, nil
	}
	dir, ok := s.dir(path)
	if !ok {
		return s.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := s.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := driver.Check(s.fset, importerFunc(s.load), path, files)
	if err != nil {
		return nil, err
	}
	s.prod[path] = pkg
	s.record(pkg.Info, path, byCode)
	return pkg.Types, nil
}

// check loads a package and its tests, recording what each reads.
func (s *surfaceScan) check(path string) error {
	dir, _ := s.dir(path)
	bp, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil
	} else if err != nil {
		return err
	}
	if _, err := s.load(path); err != nil {
		return err
	}
	self := importerFunc(s.load)
	if len(bp.TestGoFiles) > 0 {
		files := append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...)
		pkg, err := s.typecheck(path, path, dir, files, self)
		if err != nil {
			return err
		}
		self = func(p string) (*types.Package, error) {
			if p == path {
				return pkg, nil
			}
			return s.load(p)
		}
	}
	if len(bp.XTestGoFiles) > 0 {
		if _, err := s.typecheck(path+"_test", path, dir, bp.XTestGoFiles, self); err != nil {
			return err
		}
	}
	return nil
}

// typecheck checks one package's test files with the production files they
// extend, recording what they read as read by tests; home is the package
// whose own reads do not count.
func (s *surfaceScan) typecheck(path, home, dir string, names []string, imp types.Importer) (*types.Package, error) {
	files, err := s.parse(dir, names)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	xtest := path != home
	if xtest {
		// An external test sees its package with the _test.go files while
		// the packages it imports see it without them: a type may then
		// exist twice. Such errors cannot hide what a file names.
		conf.Error = func(error) {}
	}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil && !xtest {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	s.record(info, home, byTests)
	return pkg, nil
}

// parse parses the named files of dir, each once per scan.
func (s *surfaceScan) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		name = filepath.Join(dir, name)
		f, ok := s.files[name]
		if !ok {
			var err error
			if f, err = parser.ParseFile(s.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			s.files[name] = f
		}
		files = append(files, f)
	}
	return files, nil
}

// record marks every module object of another package than home that info
// uses as read by `by` (by bench/, for bench/'s packages).
func (s *surfaceScan) record(info *types.Info, home string, by reader) {
	if s.inBench(home) {
		by = byBench
	}
	for _, obj := range info.Uses {
		if obj.Pkg() == nil || obj.Pkg().Path() == home {
			continue
		}
		if _, ok := s.dir(obj.Pkg().Path()); !ok {
			continue
		}
		s.reads[obj.Pos()] |= by
		s.objs[obj.Pos()] = obj
	}
}

// inBench reports whether a module import path is in the bench/ module.
func (s *surfaceScan) inBench(path string) bool {
	return strings.HasPrefix(path+"/", s.mods[0][0]+"/")
}

// reach marks every module type that t names, through the exported
// structure of the named types it reaches.
func (s *surfaceScan) reach(t types.Type) {
	switch t := t.(type) {
	case *types.Alias:
		if s.mark(t.Obj()) {
			s.reach(types.Unalias(t))
		}
	case *types.Named:
		for i := range t.TypeArgs().Len() {
			s.reach(t.TypeArgs().At(i))
		}
		if s.mark(t.Origin().Obj()) {
			s.reach(t.Origin().Underlying())
		}
	case *types.Pointer:
		s.reach(t.Elem())
	case *types.Slice:
		s.reach(t.Elem())
	case *types.Array:
		s.reach(t.Elem())
	case *types.Chan:
		s.reach(t.Elem())
	case *types.Map:
		s.reach(t.Key())
		s.reach(t.Elem())
	case *types.Signature:
		s.reach(t.Params())
		s.reach(t.Results())
	case *types.Tuple:
		for i := range t.Len() {
			s.reach(t.At(i).Type())
		}
	case *types.Struct:
		for i := range t.NumFields() {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				s.reach(f.Type())
			}
		}
	case *types.Interface:
		for i := range t.NumMethods() {
			s.reach(t.Method(i).Type())
		}
	}
}

// mark records a module type as reached and reports whether it is new.
func (s *surfaceScan) mark(obj *types.TypeName) bool {
	if obj.Pkg() == nil || s.reached[obj.Pos()] {
		return false
	}
	if _, ok := s.dir(obj.Pkg().Path()); !ok {
		return false
	}
	s.reached[obj.Pos()] = true
	return true
}

// implementations returns the methods of module types that implement a
// method of an interface: one declared in the modules, or an exported one
// of a package they import.
func (s *surfaceScan) implementations() map[token.Pos]bool {
	var named []*types.Named
	byMethod := map[string][]int{}
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package, module bool)
	visit = func(pkg *types.Package, module bool) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 && (module || tn.Exported()) {
					ifaces = append(ifaces, it)
				}
			} else if module {
				ms := types.NewMethodSet(types.NewPointer(n))
				for i := range ms.Len() {
					byMethod[ms.At(i).Obj().Name()] = append(byMethod[ms.At(i).Obj().Name()], len(named))
				}
				named = append(named, n)
			}
		}
		for _, imp := range pkg.Imports() {
			_, inModule := s.dir(imp.Path())
			visit(imp, inModule)
		}
	}
	paths := make([]string, 0, len(s.prod))
	for path := range s.prod {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		visit(s.prod[path].Types, true)
	}
	out := map[token.Pos]bool{}
	for _, it := range ifaces {
		for _, i := range byMethod[it.Method(0).Name()] {
			ptr := types.NewPointer(named[i])
			if !types.Implements(ptr, it) {
				continue
			}
			for j := range it.NumMethods() {
				m := it.Method(j)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name()); obj != nil {
					out[obj.Pos()] = true
				}
			}
		}
	}
	return out
}

// classify sorts one package's exported names into their classes and
// records a finding for each unread one.
func (s *surfaceScan) classify(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			s.place(pkg.Name()+"."+name, obj)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || !obj.Exported() || tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := range n.NumMethods() {
			m := n.Method(i)
			if !m.Exported() {
				continue
			}
			recv := name
			if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
				recv = "(*" + name + ")"
			}
			s.place(pkg.Name()+"."+recv+"."+m.Name(), m)
		}
	}
}

// place counts one exported name in its class.
func (s *surfaceScan) place(name string, obj types.Object) {
	s.total++
	at := s.fset.Position(obj.Pos())
	rel, err := filepath.Rel(s.root, at.Filename)
	if err != nil {
		rel = at.Filename
	}
	where := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), at.Line)
	r := s.reads[obj.Pos()]
	_, isVar := obj.(*types.Var)
	reason, waived := s.waiver(at)
	class := classUnread
	switch {
	case r&byCode != 0:
		class = classCode
	case s.implements[obj.Pos()]:
		class = classInterface
	case s.reached[obj.Pos()]:
		class = classReached
	case r&byTests != 0:
		class = classTests
	case r&byBench != 0:
		class = classBench
	case isVar && strings.HasPrefix(obj.Name(), "Err"):
		class = classSentinel
	case waived && reason != "":
		class = classWaived
	case waived:
		s.findings = append(s.findings, where+": "+name+" is waived without a reason: write //hetlint:allow surface <reason>")
	default:
		s.findings = append(s.findings, where+": "+name+" is read by no other package: delete it, unexport it, or waive it with //hetlint:allow surface <reason>")
	}
	s.byClass[class] = append(s.byClass[class], name)
	if (class == classTests || class == classBench) && r&byBench != 0 {
		s.benchPinned = append(s.benchPinned, name)
	}
}

// waiver finds a `//hetlint:allow surface` directive in the doc comment
// that ends on the line above at, or on at's line, and returns its reason.
func (s *surfaceScan) waiver(at token.Position) (string, bool) {
	f := s.files[at.Filename]
	if f == nil {
		return "", false
	}
	for _, cg := range f.Comments {
		first, last := s.fset.Position(cg.Pos()).Line, s.fset.Position(cg.End()).Line
		if last != at.Line-1 && (first > at.Line || last < at.Line) {
			continue
		}
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, surfaceDirective); ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}
