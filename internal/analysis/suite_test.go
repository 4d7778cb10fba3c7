package analysis_test

import (
	"testing"

	"hetpipe/internal/analysis"
)

// analyzer returns the suite's analyzer of the given name: the tests reach
// the analyzers the way TestLint does, through All.
func analyzer(t *testing.T, name string) *analysis.Analyzer {
	t.Helper()
	for _, a := range analysis.All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q in analysis.All", name)
	return nil
}
