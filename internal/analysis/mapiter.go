package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapIter flags map iteration whose body feeds ordered output in the
// deterministic packages.
//
// Go randomizes map iteration order per run, so a `range m` that appends to
// a slice, accumulates floats (float addition does not commute bitwise),
// writes to an encoder or builder, or emits observer events produces output
// that differs run to run — exactly what the byte-identical sweep tests and
// golden schedules forbid. Commutative bodies (integer counting, max/min,
// writes into another map, delete) are fine and are not flagged.
//
// The one sanctioned iteration idiom passes unflagged: collect the keys (or
// values) into a slice and sort it before use,
//
//	keys := make([]string, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)
//
// anything else needs `//hetlint:allow mapiter` with a justification.
var mapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flag map iteration feeding ordered output in deterministic packages",
	Run:  runMapIter,
}

func runMapIter(pass *Pass) error {
	if !isDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := pass.Info.TypeOf(rng.X); t == nil {
					return true
				} else if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, fn, rng)
				return true
			})
		}
	}
	return nil
}

// checkMapRange classifies one map-range body and reports it when ordered
// output is reachable and the collect-then-sort idiom does not apply.
func checkMapRange(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	var (
		triggers []string
		appends  []*types.Var // targets of `s = append(s, ...)` statements
		onlyApp  = true       // every trigger is a plain collect-append
	)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if v, plain := collectAppend(pass, n); plain {
				appends = append(appends, v)
				triggers = append(triggers, "slice append")
				return true
			}
			if floatAccumulate(pass, n) {
				triggers = append(triggers, "float accumulation")
				onlyApp = false
			}
			if stringAccumulate(pass, n) {
				triggers = append(triggers, "string concatenation")
				onlyApp = false
			}
		case *ast.CallExpr:
			if isAppendCall(pass, n) {
				// An append not captured as a plain collect-assign above
				// (e.g. nested in an expression or targeting a field).
				if !partOfCollect(pass, n) {
					triggers = append(triggers, "slice append")
					onlyApp = false
				}
			} else if name, ok := orderedWriterCall(pass, n); ok {
				triggers = append(triggers, "call to "+name)
				onlyApp = false
			}
		case *ast.SendStmt:
			triggers = append(triggers, "channel send")
			onlyApp = false
		}
		return true
	})
	if len(triggers) == 0 {
		return
	}
	if onlyApp && len(appends) > 0 && allSortedAfter(pass, fn, rng, appends) {
		return // the sanctioned collect-then-sort idiom
	}
	pass.reportf(rng.Pos(), "mapiter",
		"map iteration order is random but the loop body reaches ordered output (%s); sort the keys first",
		triggers[0])
}

// collectAppend matches the collect idiom statement `v = append(v, ...)`
// where v is a plain local variable, returning its object.
func collectAppend(pass *Pass, as *ast.AssignStmt) (*types.Var, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
		return nil, false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isAppendCall(pass, call) || len(call.Args) == 0 {
		return nil, false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.Info.ObjectOf(first) != pass.Info.ObjectOf(lhs) {
		return nil, false
	}
	v, ok := pass.Info.ObjectOf(lhs).(*types.Var)
	return v, ok
}

// partOfCollect reports whether the append call is the RHS of a statement
// collectAppend accepts, so the CallExpr branch does not double-count it.
func partOfCollect(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	_, isVar := pass.Info.ObjectOf(first).(*types.Var)
	return isVar
}

func isAppendCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// floatAccumulate matches `x op= y` (or x = x op y is out of scope) where x
// is floating point: float addition order changes low bits.
func floatAccumulate(pass *Pass, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	t := pass.Info.TypeOf(as.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// stringAccumulate matches `s += ...` on a string.
func stringAccumulate(pass *Pass, as *ast.AssignStmt) bool {
	if as.Tok != token.ADD_ASSIGN {
		return false
	}
	t := pass.Info.TypeOf(as.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// orderedWriterTypes are receiver types whose method calls produce ordered
// output byte by byte.
var orderedWriterTypes = map[string]bool{
	"strings.Builder":       true,
	"bytes.Buffer":          true,
	"bufio.Writer":          true,
	"encoding/json.Encoder": true,
	"encoding/csv.Writer":   true,
}

// orderedWriterPrefixes are method-name prefixes treated as ordered emission
// (encoders, observers, loggers). Add/Insert-style names stay exempt: they
// commonly target commutative structures (sets, maps, counters).
var orderedWriterPrefixes = []string{
	"Write", "Emit", "Encode", "Print", "Fprint", "Observe", "Record", "Log", "Send",
}

// orderedWriterCall reports whether the call is a function or method call
// that writes ordered output, returning a short description.
func orderedWriterCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// Method call on a known byte-ordered writer type; package-qualified
	// calls (fmt.Fprintf, ...) fall through to the name-prefix rule.
	isPkgQualified := false
	if id, ok := sel.X.(*ast.Ident); ok {
		_, isPkgQualified = pass.Info.Uses[id].(*types.PkgName)
	}
	if !isPkgQualified {
		if t := pass.Info.TypeOf(sel.X); t != nil {
			if name := typeName(t); orderedWriterTypes[name] {
				return name + "." + sel.Sel.Name, true
			}
		}
	}
	for _, p := range orderedWriterPrefixes {
		if strings.HasPrefix(sel.Sel.Name, p) {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// typeName renders a (possibly pointer) named type as pkgpath.Name with the
// package path shortened to match orderedWriterTypes keys.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// allSortedAfter reports whether every collect-append target is passed to a
// sort/slices call after the range statement within the enclosing function.
func allSortedAfter(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, targets []*types.Var) bool {
	for _, v := range targets {
		if !sortedAfter(pass, fn, rng.End(), v) {
			return false
		}
	}
	return true
}

func sortedAfter(pass *Pass, fn *ast.FuncDecl, after token.Pos, v *types.Var) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		pkg, _, ok := pkgFunc(pass.Info, call.Fun)
		if !ok || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.Info.ObjectOf(id) == v {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
