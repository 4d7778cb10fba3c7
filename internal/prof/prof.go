// Package prof is the command-line tools' profiling hook: a -cpuprofile flag
// hands its value to StartCPU and defers the returned stop, and a -memprofile
// flag hands its value to WriteAllocs once the work is done. It is stdlib
// runtime/pprof and nothing else, off unless a path is given, and it touches
// no result — a profiled run computes exactly what an unprofiled one does.
package prof

import (
	"errors"
	"fmt"
	"os"
	"runtime"
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

// WriteAllocs writes the stdlib "allocs" profile to path: every allocation
// the process has sampled since it started, at runtime.MemProfileRate, with
// the call stack that made it (go tool pprof -sample_index=alloc_objects
// counts them). It runs a garbage collection first, so that the profile
// includes the allocations since the last one. An empty path writes nothing.
func WriteAllocs(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err == nil {
		runtime.GC()
		err = errors.Join(pprof.Lookup("allocs").WriteTo(f, 0), f.Close())
	}
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	return nil
}
