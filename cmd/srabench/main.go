// Command srabench regenerates every table and figure of the evaluation
// (DESIGN.md §4) and prints them as text tables. Pass -quick for a
// seconds-scale smoke run; default sizing matches EXPERIMENTS.md.
//
// Usage:
//
//	srabench              # all experiments at full scale
//	srabench -quick       # all experiments, small sizing
//	srabench -run F2      # one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rexchange/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "srabench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick = flag.Bool("quick", false, "small sizing (seconds instead of minutes)")
		runID = flag.String("run", "", "run one experiment ("+strings.Join(experiments.IDs(), ",")+"); empty = all")
	)
	flag.Parse()
	sc := experiments.Scale{Quick: *quick}

	if *runID != "" {
		driver := experiments.ByID(*runID)
		if driver == nil {
			return fmt.Errorf("unknown experiment %q", *runID)
		}
		start := time.Now()
		tbl, err := driver(sc)
		if err != nil {
			return err
		}
		fmt.Print(tbl)
		fmt.Printf("(%s in %.1fs)\n", *runID, time.Since(start).Seconds())
		return nil
	}

	start := time.Now()
	tables, err := experiments.All(sc)
	for _, t := range tables {
		fmt.Print(t)
		fmt.Println()
	}
	if err != nil {
		return err
	}
	fmt.Printf("all experiments completed in %.1fs\n", time.Since(start).Seconds())
	return nil
}
