// Convergence study (the Figure 6 scenario): real numeric SGD under the WSP
// synchronization schedule, co-simulated with cluster timing. Compares
// Horovod against HetPipe at several clock-distance bounds D and prints the
// loss trajectory of each run, through the public experiment catalog
// (hetpipe.RunExperiment).
package main

import (
	"context"
	"fmt"
	"log"

	"hetpipe"
)

func main() {
	out, err := hetpipe.RunExperiment(context.Background(), "figure6")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)

	fmt.Println()
	out, err = hetpipe.RunExperiment(context.Background(), "syncoverhead")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
}
