package analysis

import (
	"go/ast"
)

// detRand forbids the global math/rand source and unseeded generators in
// production code.
//
// Every stochastic choice in the system — fault plans, synthetic data,
// training shuffles — must draw from a rand.New(rand.NewSource(seed)) whose
// seed travels through the config, or sweeps stop being reproducible and
// the conformance harness can no longer compare sim against live. The
// package-level rand.Intn etc. share a process-global source that other
// code can reseed or advance, and a rand.New over anything but a direct
// rand.NewSource(seed) cannot be audited for determinism mechanically;
// wrap genuinely deterministic custom sources with `//hetlint:allow rand`.
var detRand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid global math/rand functions and unseeded rand.New outside tests",
	Run:  runDetRand,
}

// randPkgs are the math/rand variants the check covers.
var randPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// globalRandFuncs are the package-level draws on the shared global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "IntN": true, "Int32": true,
	"Int32N": true, "Int64": true, "Int64N": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true,
}

func runDetRand(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkg, name, ok := pkgFunc(pass.Info, n); ok && randPkgs[pkg] && globalRandFuncs[name] {
					pass.reportf(n.Pos(), "rand",
						"global rand.%s draws from the shared process-wide source; use rand.New(rand.NewSource(seed)) with a config-carried seed",
						name)
				}
			case *ast.CallExpr:
				if pkg, name, ok := pkgFunc(pass.Info, n.Fun); ok && randPkgs[pkg] && name == "New" {
					if !seededSource(pass, n) {
						pass.reportf(n.Pos(), "rand",
							"rand.New source is not a direct rand.NewSource(seed); determinism cannot be audited (//hetlint:allow rand for vetted deterministic sources)")
					}
				}
			}
			return true
		})
	}
	return nil
}

// seededSource reports whether every source argument of a rand.New call is
// itself a direct call to a source constructor of the same rand package
// (NewSource for math/rand, NewPCG/NewChaCha8 for math/rand/v2).
func seededSource(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	for _, arg := range call.Args {
		inner, ok := arg.(*ast.CallExpr)
		if !ok {
			return false
		}
		pkg, name, ok := pkgFunc(pass.Info, inner.Fun)
		if !ok || !randPkgs[pkg] {
			return false
		}
		if name != "NewSource" && name != "NewPCG" && name != "NewChaCha8" {
			return false
		}
	}
	return true
}
