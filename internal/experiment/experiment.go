// Package experiment regenerates every table and figure of the paper's
// evaluation (Section 8) on the simulated cluster: Figure 1 (pipeline
// schedule), Table 1 (GPU specs), Table 3 (allocation policies), Figure 3
// (single virtual worker scaling with Nm), Figure 4 (allocation policies vs
// Horovod at D=0), Table 4 (adding whimpy GPUs), Figures 5 and 6
// (convergence over time for ResNet-152 and VGG-19), the Section 8.4
// synchronization-overhead analysis, and the Theorem 1 regret check.
//
// Experiments are registered as Defs — name, paper reference, title, and a
// Runner that fills in a pre-built Report — so the registry doubles as a
// machine-readable catalog: cmd/hetbench's -list and the EXPERIMENTS.md
// document are both views of Defs. Each Runner produces structured rows plus
// notes; Report.String renders them as the text cmd/hetbench prints.
// EXPERIMENTS.md records the paper-versus-measured comparison for every row.
//
// Grid-shaped studies beyond the paper's fixed tables live in
// internal/sweep, which generalizes these hand-enumerated configurations
// into declarative scenario grids.
package experiment

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Report is one experiment's output.
type Report struct {
	// Name is the registry key, e.g. "figure4".
	Name string
	// Paper cites the reproduced artifact, e.g. "Figure 4" or "Section 8.4".
	Paper string
	// Title describes the experiment.
	Title string
	// Lines are formatted result rows.
	Lines []string
	// Notes carry caveats and paper-comparison remarks.
	Notes []string
}

// String renders the report as indented text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.Name, r.Title)
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  # %s\n", n)
	}
	return b.String()
}

func (r *Report) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Runner fills a pre-built report whose Name, Paper, and Title are already
// set from the experiment's Def, passing ctx to every simulation and training
// run it starts.
type Runner func(context.Context, *Report) error

// Def is one registered experiment: the registry metadata plus its runner.
// Defs are the single source of truth behind Run, cmd/hetbench's
// -list output, and the EXPERIMENTS.md catalog.
type Def struct {
	// Name is the registry key, e.g. "figure4".
	Name string
	// Paper cites the reproduced artifact, e.g. "Figure 4" or "Section 8.4".
	Paper string
	// Title describes the experiment in one line.
	Title string
	// Run fills the report.
	Run Runner
}

var registry = map[string]*Def{}

func register(name, paper, title string, fn Runner) {
	if _, dup := registry[name]; dup {
		panic("experiment: duplicate registration of " + name)
	}
	registry[name] = &Def{Name: name, Paper: paper, Title: title, Run: fn}
}

// names lists registered experiments in sorted order.
func names() []string {
	return slices.Sorted(maps.Keys(registry))
}

// Defs lists the registered experiments' metadata in name order.
func Defs() []Def {
	var out []Def
	for _, name := range names() {
		out = append(out, *registry[name])
	}
	return out
}

// Run executes one experiment by name. When ctx is done, before the run or
// by its end, Run returns ctx.Err() and no report.
func Run(ctx context.Context, name string) (*Report, error) {
	def, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown experiment %q (have %s)", name, strings.Join(names(), ", "))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &Report{Name: def.Name, Paper: def.Paper, Title: def.Title}
	// A runner may fill rows from runs that ctx cut short.
	if err := cmp.Or(def.Run(ctx, r), ctx.Err()); err != nil {
		return nil, err
	}
	return r, nil
}
