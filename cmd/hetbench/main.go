// Command hetbench regenerates the paper's tables and figures on the
// simulated cluster, through the public experiment catalog
// (hetpipe.ExperimentCatalog / hetpipe.RunExperiment).
//
// Usage:
//
//	hetbench -list
//	hetbench -exp figure4
//	hetbench -exp all
//	hetbench -exp figure5 -cpuprofile fig5.prof
package main

import (
	"flag"
	"fmt"

	"hetpipe"
	"hetpipe/internal/cli"
	"hetpipe/internal/core"
)

func main() {
	exp := flag.String("exp", "all", "experiment name (see -list) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	f := cli.Bind(flag.CommandLine, core.Spec{}, "cpuprofile")
	flag.Parse()
	defer cli.Start(f.CPUProfile, "", cli.Fatalf)()

	if *list {
		for _, d := range hetpipe.ExperimentCatalog() {
			fmt.Printf("%-20s %-12s %s\n", d.Name, d.Paper, d.Title)
		}
		return
	}
	if *exp == "all" {
		for _, d := range hetpipe.ExperimentCatalog() {
			r, err := hetpipe.RunExperiment(d.Name)
			if err != nil {
				cli.Fatalf("%v", err)
			}
			fmt.Println(r)
		}
		return
	}
	r, err := hetpipe.RunExperiment(*exp)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	fmt.Println(r)
}
