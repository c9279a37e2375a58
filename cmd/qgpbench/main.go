// Command qgpbench reproduces the paper's evaluation (§7): one experiment
// per figure, printing the series each figure plots.
//
// Usage:
//
//	qgpbench -list
//	qgpbench -exp 1 [-scale small|full] [-seed N]
//	qgpbench -exp 0            # run everything
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		expID = flag.Int("exp", 0, "experiment id (1-16); 0 runs all")
		scale = flag.String("scale", "full", "workload scale: small or full")
		seed  = flag.Int64("seed", 1, "workload seed")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("exp %-2d %-9s %s\n", e.ID, e.Figure, e.Title)
		}
		return
	}

	var sc bench.Scale
	switch *scale {
	case "small":
		sc = bench.Small()
	case "full":
		sc = bench.Full()
	default:
		fmt.Fprintf(os.Stderr, "qgpbench: unknown scale %q (want small or full)\n", *scale)
		os.Exit(2)
	}
	sc.Seed = *seed

	run := func(e bench.Experiment) {
		fmt.Printf("# exp %d — %s: %s\n", e.ID, e.Figure, e.Title)
		start := time.Now()
		if err := e.Run(sc, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "qgpbench: exp %d: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("# exp %d done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *expID == 0 {
		for _, e := range bench.All() {
			run(e)
		}
		return
	}
	e, ok := bench.ByID(*expID)
	if !ok {
		fmt.Fprintf(os.Stderr, "qgpbench: no experiment %d (use -list)\n", *expID)
		os.Exit(2)
	}
	run(e)
}
