// Parameter-server demo: real WSP traffic over the TCP sharded
// parameter-server substrate, driven through the public API. A VGG-19 ED
// deployment is resolved once with hetpipe.New, then trained live
// (Deployment.Train): one goroutine per virtual worker pushes one aggregated
// update per wave and pulls lazily under the clock-distance bound D, over
// real loopback sockets speaking the ps package's binary wire protocol v2
// (gob serves only shard checkpoints). An observer streams every
// push, pull, and observed clock advance; a context deadline shows that a
// live TCP run cancels cleanly, with all goroutines and sockets reaped.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"hetpipe"
)

func main() {
	observer := func(e hetpipe.Event) {
		switch e.Kind {
		case hetpipe.EventPush:
			fmt.Printf("  t=%7.3fs  worker %d pushed wave %2d\n", e.Time, e.VW, e.Wave)
		case hetpipe.EventPull:
			fmt.Printf("  t=%7.3fs  worker %d pulled at global clock %2d\n", e.Time, e.VW, e.Clock)
		case hetpipe.EventClockAdvance:
			fmt.Printf("  t=%7.3fs  global clock -> %2d\n", e.Time, e.Clock)
		}
	}
	dep, err := hetpipe.New(
		hetpipe.WithModel("vgg19"),
		hetpipe.WithPolicy("ED"),
		hetpipe.WithNm(4), // wave size 4, slocal = 3
		hetpipe.WithD(1),
		hetpipe.WithMinibatchesPerVW(48), // 12 waves per worker
		hetpipe.WithTCP(true),
		hetpipe.WithObserver(observer),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live TCP WSP training: %d workers (one per virtual worker), D=%d, wave size %d\n",
		len(dep.VirtualWorkers()), dep.D(), dep.Nm())

	sum, err := dep.Train(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final: global clock %d, %d pushes, %d pulls, max clock distance %d (bound %d), accuracy %.3f\n",
		sum.GlobalClock, sum.Pushes, sum.Pulls, sum.MaxClockDistance, dep.D()+1, sum.FinalAccuracy)

	// The same deployment, run again under a deadline that cannot be met:
	// the run aborts mid-flight with context.DeadlineExceeded and every
	// worker goroutine, blocked pull, and TCP socket is reaped.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := dep.Train(ctx); errors.Is(err, context.DeadlineExceeded) {
		fmt.Println("deadlined rerun: cancelled cleanly with context.DeadlineExceeded")
	} else {
		fmt.Printf("deadlined rerun: unexpected result: %v\n", err)
	}
}
