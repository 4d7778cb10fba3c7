package analysis_test

import (
	"testing"

	"hetpipe/internal/analysis/analysistest"
)

func TestDetWallTime(t *testing.T) {
	analysistest.Run(t, analyzer(t, "detwalltime"),
		analysistest.Package{Path: "fix/internal/sim", Dir: "testdata/detwalltime/det"},
	)
}

// TestDetWallTimeLivePackage proves the analyzer is scoped: wall-clock calls
// in a non-deterministic package produce no diagnostics.
func TestDetWallTimeLivePackage(t *testing.T) {
	analysistest.Run(t, analyzer(t, "detwalltime"),
		analysistest.Package{Path: "fix/live", Dir: "testdata/detwalltime/live"},
	)
}
