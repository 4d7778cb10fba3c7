package analysis

import (
	"go/ast"
)

// detWallTime forbids wall-clock reads in the deterministic packages.
//
// The simulator's clock is virtual (sim.Time); the golden schedule tests and
// the sim-vs-live conformance harness depend on runs being bit-identical
// across machines and re-runs. One time.Now in internal/sim, core, pipeline,
// sched, partition, sweep, fault, or wsp silently couples results to the
// host clock. The live runtime (internal/cluster, cmd) legitimately reads
// wall time and is outside the deterministic set; a deterministic package
// hosting a genuinely wall-clock-facing seam marks the site with
// `//hetlint:allow walltime`.
var detWallTime = &Analyzer{
	Name: "detwalltime",
	Doc:  "forbid time.Now/Sleep/Since and friends in deterministic packages",
	Run:  runDetWallTime,
}

// wallClockFuncs are the package time functions that observe or depend on
// the wall clock. Conversions and constants (time.Duration, time.Millisecond)
// remain fine: they are pure values.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runDetWallTime(pass *Pass) error {
	if !isDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, name, ok := pkgFunc(pass.Info, sel); ok && pkg == "time" && wallClockFuncs[name] {
				pass.reportf(sel.Pos(), "walltime",
					"wall-clock call time.%s in deterministic package %s (use virtual sim.Time; //hetlint:allow walltime for live-runtime seams)",
					name, pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}
