package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// sentErr enforces the sentinel-error contract around the exported Err*
// variables (ErrUnknownModel … ErrBadInterleave and any future siblings).
//
// Two rules:
//
//  1. A fmt.Errorf that mentions a sentinel must wrap it with %w, otherwise
//     the added context silently severs the errors.Is chain the public API
//     documents — callers match hetpipe.ErrUnknownModel through wrapped
//     returns, and a %v/%s wrap makes that test false without any compile
//     error.
//  2. Outside the sentinel's defining package, comparisons must go through
//     errors.Is: `err == pkg.ErrX` (or a switch case on err) is false for
//     every wrapped return, which is exactly the bug rule 1 exists to keep
//     impossible.
//
// Inside the defining package, identity comparison of an unwrapped sentinel
// is legitimate (that package knows which errors it never wrapped).
var sentErr = &Analyzer{
	Name: "senterr",
	Doc:  "require %w wrapping and errors.Is matching for exported Err* sentinels",
	Run:  runSentErr,
}

func runSentErr(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					checkSentinelCompare(pass, n.OpPos, n.Op.String(), n.X, n.Y)
				}
			case *ast.SwitchStmt:
				checkErrorSwitch(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkErrorfWrap flags fmt.Errorf calls that mention a sentinel but whose
// constant format string never uses %w.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	pkg, name, ok := pkgFunc(pass.Info, call.Fun)
	if !ok || pkg != "fmt" || name != "Errorf" || len(call.Args) < 2 {
		return
	}
	var sentinels []string
	for _, arg := range call.Args[1:] {
		if v := sentinelOf(pass, arg); v != nil {
			sentinels = append(sentinels, v.Name())
		}
	}
	if len(sentinels) == 0 {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return // dynamic format string: nothing to prove mechanically
	}
	if !strings.Contains(constant.StringVal(tv.Value), "%w") {
		pass.reportf(call.Pos(), "senterr",
			"fmt.Errorf carries sentinel %s without %%w; the added context severs the errors.Is chain",
			sentinels[0])
	}
}

// checkSentinelCompare flags ==/!= against a sentinel defined in another
// package.
func checkSentinelCompare(pass *Pass, pos token.Pos, op string, x, y ast.Expr) {
	for _, e := range []ast.Expr{x, y} {
		v := sentinelOf(pass, e)
		if v == nil || v.Pkg() == pass.Pkg {
			continue
		}
		pass.reportf(pos, "senterr",
			"%s against sentinel %s.%s is false for every wrapped error; use errors.Is",
			op, v.Pkg().Name(), v.Name())
	}
}

// checkErrorSwitch flags `switch err { case pkg.ErrX: }` — the same identity
// comparison as ==, spelled as a switch.
func checkErrorSwitch(pass *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	if t := pass.Info.TypeOf(sw.Tag); t == nil || !isErrorType(t) {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if v := sentinelOf(pass, e); v != nil && v.Pkg() != pass.Pkg {
				pass.reportf(e.Pos(), "senterr",
					"switch case on sentinel %s.%s is an identity comparison; use errors.Is",
					v.Pkg().Name(), v.Name())
			}
		}
	}
}

// sentinelOf resolves an expression to an exported package-level Err*
// variable of error type, or nil.
func sentinelOf(pass *Pass, e ast.Expr) *types.Var {
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = pass.Info.ObjectOf(e)
	case *ast.SelectorExpr:
		obj = pass.Info.ObjectOf(e.Sel)
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || !v.Exported() || v.Pkg() == nil {
		return nil
	}
	if !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	// Package-level only: locals named ErrX are not sentinels.
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	return v
}

func isErrorType(t types.Type) bool {
	errIface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, errIface)
}
