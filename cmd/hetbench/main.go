// Command hetbench regenerates the paper's tables and figures on the
// simulated cluster, through the public experiment catalog
// (hetpipe.ExperimentCatalog / hetpipe.RunExperiment). Ctrl-C cancels the
// experiment in flight, which stops its simulations and training runs; the
// command then exits with status 1, writing the profiles first.
//
// Usage:
//
//	hetbench -list
//	hetbench -exp figure4
//	hetbench -exp all
//	hetbench -exp figure5 -cpuprofile fig5.prof -memprofile fig5.mem
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"hetpipe"
	"hetpipe/internal/cli"
	"hetpipe/internal/core"
)

func main() {
	exp := flag.String("exp", "all", "experiment name (see -list) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	f := cli.Bind(flag.CommandLine, core.Spec{}, "cpuprofile", "memprofile")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	defer cli.Start(f.CPUProfile, f.MemProfile, cli.Fatalf)()

	if *list {
		for _, d := range hetpipe.ExperimentCatalog() {
			fmt.Printf("%-20s %-12s %s\n", d.Name, d.Paper, d.Title)
		}
		return
	}
	if *exp == "all" {
		for _, d := range hetpipe.ExperimentCatalog() {
			run(ctx, d.Name)
		}
		return
	}
	run(ctx, *exp)
}

// run prints experiment name's report, or ends the process through
// cli.Fatalf when it fails or ctx is cancelled.
func run(ctx context.Context, name string) {
	report, err := hetpipe.RunExperiment(ctx, name)
	switch {
	case ctx.Err() != nil:
		cli.Fatalf("%s: %v", name, ctx.Err())
	case err != nil:
		cli.Fatalf("%v", err)
	}
	fmt.Println(report)
}
