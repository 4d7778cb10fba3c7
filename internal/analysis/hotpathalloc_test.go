package analysis_test

import (
	"testing"

	"hetpipe/internal/analysis/analysistest"
)

func TestHotPathAlloc(t *testing.T) {
	analysistest.Run(t, analyzer(t, "hotpathalloc"),
		analysistest.Package{Path: "fix/hot", Dir: "testdata/hotpathalloc/hot"},
	)
}
