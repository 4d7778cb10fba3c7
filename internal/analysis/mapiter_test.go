package analysis_test

import (
	"testing"

	"hetpipe/internal/analysis/analysistest"
)

func TestMapIter(t *testing.T) {
	analysistest.Run(t, analyzer(t, "mapiter"),
		analysistest.Package{Path: "fix/internal/sweep", Dir: "testdata/mapiter/det"},
	)
}
