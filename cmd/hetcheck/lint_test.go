package main

import (
	"path/filepath"
	"sort"
	"testing"

	"hetpipe/internal/analysis"
	"hetpipe/internal/analysis/driver"
)

// TestLint runs hetlint's analyzers (internal/analysis: detwalltime, detrand,
// mapiter, hotpathalloc, senterr) over the production files of every package
// of the module, on the load TestSurface reads, and fails on any finding.
// bench/ is its own module and is not linted. A finding is mended in the
// code or waived where it stands with `//hetlint:allow <check>`.
//
// Most of its ~3 s on a 2-core host is type-checking every package from
// source, a load it shares with TestSurface so the package pays it once. It
// lints every production package because a package left out is one whose
// findings pass unseen.
func TestLint(t *testing.T) {
	s := loadScan(t)
	var pkgs []*driver.Package
	for path, pkg := range s.prod {
		if !s.inBench(path) {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	diags, err := driver.Run(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("linted %d packages", len(pkgs))
	for _, d := range diags {
		if rel, err := filepath.Rel(s.root, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		t.Error(d)
	}
}
