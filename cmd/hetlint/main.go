// Command hetlint runs the repository's determinism and hot-path analyzers
// (internal/analysis) over Go packages, as a cmd/go vet tool:
//
//	go build -o "$(go env GOPATH)/bin/hetlint" ./cmd/hetlint
//	go vet -vettool="$(which hetlint)" ./...
//
// It speaks cmd/go's unitchecker protocol: the go command hands hetlint one
// JSON config per package (source files plus the import map and export data
// of the package's dependencies), which also covers test packages; the
// analyzers themselves exempt *_test.go files. Run any other way, hetlint
// prints a one-line usage.
//
// Exit status: 0 clean, 1 operational error or misuse, 2 findings.
//
// The suite (see docs/ARCHITECTURE.md "Enforced invariants"):
//
//	detwalltime   no wall-clock reads in deterministic packages
//	detrand       no global/unseeded math/rand outside tests
//	mapiter       no map-iteration-ordered output in deterministic packages
//	hotpathalloc  no allocating constructs in //hetlint:hotpath functions
//	senterr       %w wrapping and errors.Is matching for Err* sentinels
package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"strings"

	"hetpipe/internal/analysis"
	"hetpipe/internal/analysis/driver"
)

// version participates in cmd/go's tool-ID handshake (`hetlint -V=full`);
// the content only needs to be stable per build for vet caching.
const version = "hetlint version 1"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// cmd/go's vettool protocol: `-V=full` asks for a version line,
	// `-flags` for the supported analyzer flags (none), and a lone .cfg
	// argument names one package to check.
	for _, a := range args {
		if a == "-V=full" || a == "-V" || strings.HasPrefix(a, "-V=") {
			fmt.Println(version)
			return 0
		}
		if a == "-flags" {
			fmt.Println("[]")
			return 0
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return unitcheck(args[0])
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which hetlint) [packages]")
	return 1
}

// vetConfig is the JSON configuration cmd/go writes for each package when
// hetlint runs as a vettool (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package described by a cmd/go vet config file and
// prints the findings go-vet style.
func unitcheck(cfgPath string) int {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hetlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// hetlint computes no cross-package facts, but cmd/go expects the facts
	// file to exist for caching; write it before any early exit.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "hetlint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	fset := token.NewFileSet()
	imp := driver.NewImporter(fset, cfg.PackageFile, nil)
	imp.SetRemap(cfg.ImportMap)
	pkg, err := driver.CheckFiles(fset, imp, cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "hetlint: %v\n", err)
		return 1
	}
	diags, err := driver.Run([]*driver.Package{pkg}, analysis.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetlint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
