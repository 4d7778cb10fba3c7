package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hetpipe"
	"hetpipe/internal/core"
	"hetpipe/internal/fault"
)

// Each deployment CLI's defaults and flag names, parsed from an empty argv,
// give the Spec that CLI resolved by default before its flags were shared
// (hetpipe's and hetlive -deploy's hetpipe.New options, hetserve's
// hand-built Spec), with the fault plan, progress and profiles off.
func TestBindDefaults(t *testing.T) {
	for _, tc := range []struct {
		cli   string
		spec  core.Spec
		names []string
	}{
		{"hetpipe", core.Spec{Model: "vgg19", Cluster: "paper", Policy: "ED", Batch: 32},
			[]string{"model", "cluster", "policy", "schedule", "interleave", "nm", "d", "batch", "faults", "checkpoint-every", "progress", "cpuprofile", "memprofile"}},
		{"hetserve", core.Spec{Model: "vgg19", Cluster: "paper", Policy: "NP"},
			[]string{"model", "cluster", "policy", "schedule", "interleave", "nm", "batch", "faults", "cpuprofile", "memprofile"}},
		{"hetlive", core.Spec{Model: "vgg19", Cluster: "paper", Policy: "ED", Nm: 4, D: 1},
			[]string{"model", "cluster", "policy", "schedule", "interleave", "nm", "d", "faults", "checkpoint-every", "progress", "cpuprofile", "memprofile"}},
	} {
		fs := flag.NewFlagSet(tc.cli, flag.ContinueOnError)
		f := Bind(fs, tc.spec, tc.names...)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		if want := (Flags{Spec: tc.spec}); *f != want {
			t.Errorf("%s: an empty argv parses to %+v, want %+v", tc.cli, *f, want)
		}
		var declared []string
		fs.VisitAll(func(fl *flag.Flag) { declared = append(declared, fl.Name) })
		if len(declared) != len(tc.names) {
			t.Errorf("%s: declared %v, want %v", tc.cli, declared, tc.names)
		}
	}
}

func TestBindParses(t *testing.T) {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	f := Bind(fs, core.Spec{Model: "vgg19", Policy: "ED", D: 1},
		"model", "cluster", "policy", "schedule", "interleave", "nm", "d", "batch", "faults",
		"checkpoint-every", "progress", "cpuprofile", "memprofile")
	err := fs.Parse(strings.Fields("-model resnet152 -cluster mini -policy HD -schedule interleaved " +
		"-interleave 2 -nm 3 -d 0 -batch 16 -faults slow:w0:x2 -checkpoint-every 4 -progress " +
		"-cpuprofile c.prof -memprofile m.prof"))
	if err != nil {
		t.Fatal(err)
	}
	want := Flags{
		Spec: core.Spec{Model: "resnet152", Cluster: "mini", Policy: "HD", Schedule: "interleaved",
			Interleave: 2, Nm: 3, Batch: 16},
		Faults: "slow:w0:x2", CheckpointEvery: 4, Progress: true,
		CPUProfile: "c.prof", MemProfile: "m.prof",
	}
	if *f != want {
		t.Errorf("parsed %+v, want %+v", *f, want)
	}

	// A flag the CLI did not name is not declared; its field keeps the default.
	fs = flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(new(bytes.Buffer))
	f = Bind(fs, core.Spec{D: 1}, "model")
	if err := fs.Parse([]string{"-d", "2"}); err == nil || f.D != 1 {
		t.Errorf("-d on a flag set without it: err %v, D %d", err, f.D)
	}
	defer func() {
		if recover() == nil {
			t.Error("Bind accepted a name that is not a shared flag")
		}
	}()
	Bind(flag.NewFlagSet("typo", flag.ContinueOnError), core.Spec{}, "modle")
}

// Options reaches every field of a Spec: hetpipe.New over it resolves what
// the Spec resolves, and simulates the same throughput under the same fault
// plan and checkpoint cadence.
func TestOptionsMapEverySpecField(t *testing.T) {
	if n := reflect.TypeOf(core.Spec{}).NumField(); n != 10 {
		t.Fatalf("core.Spec has %d fields: map the new one in Options, add a row that sets it, and count it here", n)
	}
	for _, f := range []Flags{
		{Spec: core.Spec{Model: "vgg19", Cluster: "paper", Policy: "ED", Batch: 32}},
		{Spec: core.Spec{Model: "resnet152", Cluster: "mini", Policy: "HD", Schedule: "1f1b", Nm: 2, D: 3, Batch: 16}},
		{Spec: core.Spec{Model: "vgg19", Policy: "ED", Local: true, D: 1}},
		{Spec: core.Spec{Model: "resnet152", Policy: "NP", Specs: "VRQ,VRQ,VRQ,VRQ", Nm: 4}},
		{Spec: core.Spec{Model: "resnet152", Policy: "ED", Schedule: "interleaved", Interleave: 2}},
		{Spec: core.Spec{Model: "vgg19", Policy: "ED"}, Faults: "slow:w0:x2,crash:w1:mb24", CheckpointEvery: 2},
	} {
		dep, err := hetpipe.New(f.Options()...)
		if err != nil {
			t.Fatalf("%+v: New: %v", f, err)
		}
		want, err := f.Resolve()
		if err != nil {
			t.Fatalf("%+v: Resolve: %v", f, err)
		}
		plan, err := fault.Parse(f.Faults)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dep.Simulate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		mr, err := want.Simulate(context.Background(), core.SimOptions{Faults: plan, CheckpointEvery: f.CheckpointEvery})
		if err != nil {
			t.Fatal(err)
		}
		var wantVWs []string
		for _, vp := range want.VWs {
			wantVWs = append(wantVWs, vp.VW.TypeString())
		}
		if dep.Model() != f.Model || dep.ClusterName() != f.ClusterName() || dep.Batch() != want.Sys.Batch ||
			dep.Schedule() != want.ScheduleName() || dep.Interleave() != max(want.Sys.Interleave, 1) ||
			dep.Nm() != want.Nm || dep.D() != want.D || !reflect.DeepEqual(dep.VirtualWorkers(), wantVWs) ||
			dep.Faults() != plan.String() || dep.CheckpointEvery() != f.CheckpointEvery ||
			got.Throughput != mr.Aggregate {
			t.Errorf("%+v: New resolves %s/%s b%d %s V%d Nm%d D%d %v %q ckpt%d at %v samples/s, the Spec %+v at %v",
				f, dep.Model(), dep.ClusterName(), dep.Batch(), dep.Schedule(), dep.Interleave(), dep.Nm(), dep.D(),
				dep.VirtualWorkers(), dep.Faults(), dep.CheckpointEvery(), got.Throughput, f.Spec, mr.Aggregate)
		}
	}
}

// The CPU half of Start: an empty path profiles nothing, an unwritable path
// is an error when the profile starts, and a stopped profile is written.
func TestStartCPU(t *testing.T) {
	rate := runtime.MemProfileRate
	t.Cleanup(func() { runtime.MemProfileRate = rate })
	failures, fatalf := recordFailures()

	Start("", "", fatalf)()
	if *failures != nil || runtime.MemProfileRate != rate {
		t.Fatalf("empty paths: failures %q, MemProfileRate %d", *failures, runtime.MemProfileRate)
	}

	Start(filepath.Join(t.TempDir(), "missing", "cpu.prof"), "", fatalf)()
	if len(*failures) != 1 || !strings.HasPrefix((*failures)[0], "prof: open ") {
		t.Fatalf("unwritable CPU path: failures %q", *failures)
	}
	*failures = nil

	cpu := filepath.Join(t.TempDir(), "cpu.prof")
	Start(cpu, "", fatalf)()
	if *failures != nil || runtime.MemProfileRate != rate {
		t.Fatalf("failures %q, MemProfileRate %d", *failures, runtime.MemProfileRate)
	}
	requireProfile(t, cpu)
}

// The allocation half of Start: -memprofile samples every allocation, an
// unwritable path is an error when the profile is written, and the profile
// is written by the stop.
func TestWriteAllocs(t *testing.T) {
	rate := runtime.MemProfileRate
	t.Cleanup(func() { runtime.MemProfileRate = rate })
	failures, fatalf := recordFailures()

	Start("", filepath.Join(t.TempDir(), "missing", "mem.prof"), fatalf)()
	if len(*failures) != 1 || !strings.HasPrefix((*failures)[0], "prof: open ") {
		t.Fatalf("unwritable allocation path: failures %q", *failures)
	}
	*failures = nil

	mem := filepath.Join(t.TempDir(), "mem.prof")
	stop := Start("", mem, fatalf)
	if runtime.MemProfileRate != 1 {
		t.Errorf("-memprofile left MemProfileRate at %d, want every allocation sampled", runtime.MemProfileRate)
	}
	stop()
	if *failures != nil {
		t.Fatalf("failures %q", *failures)
	}
	requireProfile(t, mem)
}

// Both profiles are written, once: the second stop writes nothing.
func TestStart(t *testing.T) {
	rate := runtime.MemProfileRate
	t.Cleanup(func() { runtime.MemProfileRate = rate })
	failures, fatalf := recordFailures()

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop := Start(cpu, mem, fatalf)
	stop()
	if *failures != nil {
		t.Fatalf("failures %q", *failures)
	}
	requireProfile(t, cpu)
	requireProfile(t, mem)
	if err := os.Remove(mem); err != nil {
		t.Fatal(err)
	}
	stop()
	if _, err := os.Stat(mem); !errors.Is(err, os.ErrNotExist) || *failures != nil {
		t.Errorf("a second stop wrote the profiles again (%v) or failed (%q)", err, *failures)
	}
}

// recordFailures returns a fatalf for Start that records each message
// instead of exiting, and the messages it has recorded.
func recordFailures() (*[]string, func(format string, args ...any)) {
	var failures []string
	return &failures, func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
}

// Fatalf, the fatal path every CLI's failure and cancellation takes, writes
// the profiles Start began before the process exits, and keeps its status
// and message.
func TestFatalfWritesProfiles(t *testing.T) {
	if dir := os.Getenv("CLI_TEST_FATALF_DIR"); dir != "" {
		Start(filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof"), Fatalf)
		Fatalf("hetcli: %v", context.Canceled)
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatalfWritesProfiles$")
	cmd.Env = append(os.Environ(), "CLI_TEST_FATALF_DIR="+dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || stderr.String() != "hetcli: context canceled\n" {
		t.Fatalf("exit %v, stderr %q; want status 1 and the message alone", err, stderr.String())
	}
	requireProfile(t, filepath.Join(dir, "cpu.prof"))
	requireProfile(t, filepath.Join(dir, "mem.prof"))
}

// requireProfile fails unless path holds a gzip'd pprof protobuf, which
// even an idle profile is once written.
func requireProfile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("%s: %d bytes, not a written profile", filepath.Base(path), len(b))
	}
}
