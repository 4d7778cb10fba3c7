package analysis_test

import (
	"testing"

	"hetpipe/internal/analysis/analysistest"
)

// TestSentErr loads the sentinel-defining package first so the consuming
// package can import it; identity comparison inside fix/errs itself must
// stay clean while fix/use is flagged.
func TestSentErr(t *testing.T) {
	analysistest.Run(t, analyzer(t, "senterr"),
		analysistest.Package{Path: "fix/errs", Dir: "testdata/senterr/errs"},
		analysistest.Package{Path: "fix/use", Dir: "testdata/senterr/use"},
	)
}
