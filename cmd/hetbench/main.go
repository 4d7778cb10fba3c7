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
	"os"

	"hetpipe"
	"hetpipe/internal/prof"
)

func main() {
	exp := flag.String("exp", "all", "experiment name (see -list) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	flag.Parse()
	stopProfile, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}()

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
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(r)
		}
		return
	}
	r, err := hetpipe.RunExperiment(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(r)
}
