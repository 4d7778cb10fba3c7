package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotPathAlloc forbids allocation-inducing constructs in functions marked
// `//hetlint:hotpath`.
//
// The event engine's steady state runs allocation-free (BENCH_pipeline.json
// pins allocs/op, and the bench gate fails CI on >5% growth), but the bench
// gate only catches a regression after it lands and only on benchmarked
// configurations. This analyzer rejects the constructs that silently
// re-introduce steady-state allocation at compile-review time, inside any
// annotated function:
//
//   - closure literals (the pooled EventFunc path exists precisely to avoid
//     per-event closures);
//   - map and slice composite literals;
//   - append to a slice not rooted at the method receiver (receiver-owned
//     buffers amortize; fresh slices grow every call);
//   - string concatenation;
//   - any fmt.* call;
//   - implicit or explicit interface conversions of non-pointer,
//     non-constant values (boxing).
//
// Cold paths inside a hot function (panics with constant messages are fine
// as-is) can carry `//hetlint:allow alloc` with a justification.
var hotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid allocating constructs in //hetlint:hotpath functions",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn, "hotpath") {
				continue
			}
			checkHotPath(pass, fn)
		}
	}
	return nil
}

func checkHotPath(pass *Pass, fn *ast.FuncDecl) {
	recv := receiverVar(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.reportf(n.Pos(), "alloc",
				"closure literal allocates in hot path %s (register a pooled handler instead)", fn.Name.Name)
			return false // the closure's own body is off the hot path now
		case *ast.CompositeLit:
			if t := pass.Info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					pass.reportf(n.Pos(), "alloc", "map literal allocates in hot path %s", fn.Name.Name)
				case *types.Slice:
					pass.reportf(n.Pos(), "alloc", "slice literal allocates in hot path %s", fn.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fn, recv, n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.Info.TypeOf(n)) && pass.Info.Types[n].Value == nil {
				pass.reportf(n.Pos(), "alloc", "string concatenation allocates in hot path %s", fn.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(pass.Info.TypeOf(n.Lhs[0])) {
				pass.reportf(n.Pos(), "alloc", "string concatenation allocates in hot path %s", fn.Name.Name)
			}
		}
		return true
	})
}

// checkHotCall applies the call-shaped rules: append targets, fmt calls,
// explicit interface conversions, and implicit boxing at argument passing.
func checkHotCall(pass *Pass, fn *ast.FuncDecl, recv *types.Var, call *ast.CallExpr) {
	if isAppendCall(pass, call) {
		if len(call.Args) > 0 && !rootedAtReceiver(pass, recv, call.Args[0]) {
			pass.reportf(call.Pos(), "alloc",
				"append to non-receiver slice in hot path %s grows a fresh backing array; use a receiver-owned buffer", fn.Name.Name)
		}
		return
	}
	if pkg, name, ok := pkgFunc(pass.Info, call.Fun); ok && pkg == "fmt" {
		pass.reportf(call.Pos(), "alloc", "fmt.%s call allocates in hot path %s", name, fn.Name.Name)
		return
	}
	// Explicit conversion I(x) to an interface type.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(pass, call.Args[0]) {
			pass.reportf(call.Pos(), "alloc",
				"interface conversion of non-pointer value allocates in hot path %s", fn.Name.Name)
		}
		return
	}
	// Implicit boxing: a non-pointer concrete argument passed for an
	// interface-typed parameter.
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		p := paramType(sig, i)
		if p == nil || !types.IsInterface(p) {
			continue
		}
		if boxes(pass, arg) {
			pass.reportf(arg.Pos(), "alloc",
				"interface conversion of non-pointer value allocates in hot path %s", fn.Name.Name)
		}
	}
}

// paramType resolves the static parameter type for argument i, unrolling
// the variadic tail.
func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if s, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// boxes reports whether converting the expression to an interface allocates:
// true for non-constant values of non-pointer-shaped concrete types.
// Pointers, channels, maps, funcs, and unsafe.Pointers fit in the interface
// word; constants can live in static data; interfaces just re-box headers.
func boxes(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}

// receiverVar returns the method receiver's variable, or nil for functions.
func receiverVar(pass *Pass, fn *ast.FuncDecl) *types.Var {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := pass.Info.ObjectOf(fn.Recv.List[0].Names[0]).(*types.Var)
	return v
}

// rootedAtReceiver reports whether the expression is a selector/index chain
// whose base identifier is the method receiver (e.g. e.heap, r.queue[i:]).
func rootedAtReceiver(pass *Pass, recv *types.Var, e ast.Expr) bool {
	if recv == nil {
		return false
	}
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.Info.ObjectOf(x) == recv
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
