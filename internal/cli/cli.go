// Package cli is the command line the CLIs share. Bind declares each flag
// that two or more of cmd/hetpipe, cmd/hetserve and cmd/hetlive take — the
// deployment a core.Spec names, the fault plan, the profile paths — once, on
// a flag.FlagSet, with the calling CLI's own defaults. Options is the one
// mapping from those values onto hetpipe.New; hetserve resolves the Spec
// itself.
//
// It also owns the profiling lifecycle. Start begins the -cpuprofile and
// -memprofile pair and returns the stop that writes both, and Fatalf and
// Exit, every CLI's way to end early, run that same stop first: a run that
// fails or is interrupted still leaves profiles go tool pprof reads.
// Profiling is stdlib runtime/pprof and nothing else, off unless a path is
// given, and touches no result.
//
// Only cmd/ imports this package; it is the one internal package that
// imports the root package.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hetpipe"
	"hetpipe/internal/core"
)

// Flags holds the shared flags' values.
type Flags struct {
	// Spec is the deployment: -model, -cluster, -policy, -schedule,
	// -interleave, -nm, -d and -batch (a CLI binds -specs and -local of its
	// own into it).
	core.Spec
	// Faults is the fault-plan spec (-faults) and CheckpointEvery the
	// checkpoint cadence in waves (-checkpoint-every).
	Faults          string
	CheckpointEvery int
	// Progress streams run events while a run is in flight (-progress).
	Progress bool
	// CPUProfile and MemProfile are Start's paths (-cpuprofile, -memprofile).
	CPUProfile, MemProfile string
}

// Bind declares the named shared flags on fs and returns the Flags that
// fs.Parse fills. The deployment flags default to def's fields, which is how
// each CLI keeps its own defaults; the others are off by default everywhere.
// A name that is not a shared flag panics: it is a typo in the calling CLI.
func Bind(fs *flag.FlagSet, def core.Spec, names ...string) *Flags {
	f := Flags{Spec: def}
	for _, name := range names {
		switch name {
		case "model":
			fs.StringVar(&f.Model, name, def.Model, "DNN model ("+strings.Join(hetpipe.Models(), ", ")+")")
		case "cluster":
			fs.StringVar(&f.Cluster, name, def.Cluster, "cluster-catalog shape ("+strings.Join(hetpipe.Clusters(), ", ")+")")
		case "policy":
			fs.StringVar(&f.Policy, name, def.Policy, "allocation policy: NP, ED, or HD")
		case "schedule":
			fs.StringVar(&f.Schedule, name, def.Schedule, "pipeline schedule: "+strings.Join(hetpipe.Schedules(), ", ")+" (empty = hetpipe-fifo)")
		case "interleave":
			fs.IntVar(&f.Interleave, name, def.Interleave, "interleave degree V: chunks per GPU (requires -schedule interleaved when > 1)")
		case "nm":
			fs.IntVar(&f.Nm, name, def.Nm, "concurrent minibatches per virtual worker: the wave size, slocal = Nm-1 (0 = auto where a deployment is planned)")
		case "d":
			fs.IntVar(&f.D, name, def.D, "WSP clock-distance bound D")
		case "batch":
			fs.IntVar(&f.Batch, name, def.Batch, "minibatch size; a serving microbatch's capacity in requests (0 = 32)")
		case "faults":
			fs.StringVar(&f.Faults, name, "", "fault-injection plan, e.g. slow:w0:x2,crash:w1:mb40 (see hetpipe.WithFaults)")
		case "checkpoint-every":
			fs.IntVar(&f.CheckpointEvery, name, 0, "checkpoint cadence in waves; a crash replays from the last checkpoint (0 = from scratch)")
		case "progress":
			fs.BoolVar(&f.Progress, name, false, "stream push, clock-advance, fault and recovery events while the run is in flight")
		case "cpuprofile":
			fs.StringVar(&f.CPUProfile, name, "", "write a CPU profile of the run to this file (go tool pprof)")
		case "memprofile":
			fs.StringVar(&f.MemProfile, name, "", "write an allocation profile of the run to this file, every allocation sampled (go tool pprof -sample_index=alloc_objects or alloc_space)")
		default:
			panic("cli: -" + name + " is not a shared flag")
		}
	}
	return &f
}

// Options maps the flags onto hetpipe.New: every field of the Spec, the
// fault plan and its checkpoint cadence.
func (f *Flags) Options() []hetpipe.Option {
	opts := []hetpipe.Option{
		hetpipe.WithModel(f.Model),
		hetpipe.WithCluster(f.Cluster),
		hetpipe.WithPolicy(f.Policy),
		hetpipe.WithSchedule(f.Schedule),
		hetpipe.WithInterleave(f.Interleave),
		hetpipe.WithBatch(f.Batch),
		hetpipe.WithNm(f.Nm),
		hetpipe.WithD(f.D),
		hetpipe.WithLocalPlacement(f.Local),
		hetpipe.WithFaults(f.Faults),
		hetpipe.WithCheckpoint(f.CheckpointEvery),
	}
	if f.Specs != "" {
		opts = append(opts, hetpipe.WithSpecs(strings.Split(f.Specs, ",")...))
	}
	return opts
}

// running writes the profiles Start began; nil once they are written. A
// process has one CPU profile and one MemProfileRate, so it has one of these
// too, where the fatal path can reach it.
var running func() error

// Start begins the profiles the paths name: a CPU profile written to cpu,
// and, when mem is set, runtime.MemProfileRate = 1 so that the allocation
// profile written to mem samples every allocation (go tool pprof
// -sample_index=alloc_objects counts them). It returns the stop for main to
// defer, which ends the CPU profile and writes the allocation profile;
// Fatalf and Exit run the same stop before the process ends, and whichever
// runs first writes the profiles. An empty path profiles nothing, and an
// error is reported through fatalf.
func Start(cpu, mem string, fatalf func(format string, args ...any)) func() {
	stop := func() {
		if err := writeProfiles(); err != nil {
			fatalf("%v", err)
		}
	}
	if mem != "" {
		runtime.MemProfileRate = 1
	}
	var f *os.File
	if cpu != "" {
		var err error
		if f, err = os.Create(cpu); err != nil {
			fatalf("prof: %v", err)
			return stop
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close() // nothing was written; the start error is the one to report
			fatalf("prof: start CPU profile: %v", err)
			return stop
		}
	}
	running = func() error {
		var err error
		if f != nil {
			pprof.StopCPUProfile()
			err = f.Close()
		}
		if mem != "" {
			err = errors.Join(err, writeAllocs(mem))
		}
		if err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		return nil
	}
	return stop
}

func writeProfiles() error {
	write := running
	running = nil
	if write == nil {
		return nil
	}
	return write()
}

// writeAllocs writes the stdlib "allocs" profile: every allocation sampled
// since the process started, with the stack that made it. It collects
// garbage first, so that the profile includes the allocations since the
// last collection.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.Lookup("allocs").WriteTo(f, 0), f.Close())
}

// Fatalf prints the message and a newline on stderr and exits with status 1,
// writing the profiles Start began first.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	Exit(1)
}

// Exit writes the profiles Start began and exits with code, or with 1 when
// writing them fails.
func Exit(code int) {
	if err := writeProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = max(code, 1)
	}
	os.Exit(code)
}
