// Package prof is the command-line tools' profiling hook: a -cpuprofile flag
// hands its value to StartCPU and defers the returned stop. It is stdlib
// runtime/pprof and nothing else, off unless a path is given, and it touches
// no result — a profiled run computes exactly what an unprofiled one does.
package prof

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// StartCPU starts a CPU profile written to path and returns the function
// that ends it and closes the file; call it once, when the work to profile is
// done (a process that exits without calling it leaves a truncated profile).
// An empty path starts nothing and returns a no-op.
func StartCPU(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close() // nothing was written; the start error is the one to report
		return nil, fmt.Errorf("prof: start CPU profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		return nil
	}, nil
}
