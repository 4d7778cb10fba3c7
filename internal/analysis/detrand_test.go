package analysis_test

import (
	"testing"

	"hetpipe/internal/analysis/analysistest"
)

func TestDetRand(t *testing.T) {
	analysistest.Run(t, analyzer(t, "detrand"),
		analysistest.Package{Path: "fix/rng", Dir: "testdata/detrand/rng"},
	)
}
