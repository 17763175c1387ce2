// Command floodbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	floodbench -list
//	floodbench -experiment fig7 -scale 500000
//	floodbench -experiment all -fast
//
// Each experiment prints the same rows/series as the corresponding paper
// artifact; -list prints the experiment index.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flood/internal/bench"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		exp     = flag.String("experiment", "", "experiment ID to run, or \"all\"")
		scale   = flag.Int("scale", 0, "base dataset rows (default 150000)")
		queries = flag.Int("queries", 0, "queries per workload (default 120)")
		seed    = flag.Int64("seed", 0, "random seed (default 2020)")
		fast    = flag.Bool("fast", false, "trim sweeps for a quick smoke run")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := bench.Config{
		Scale:   *scale,
		Queries: *queries,
		Seed:    *seed,
		Fast:    *fast,
		Out:     os.Stdout,
	}

	runOne := func(e bench.Experiment) {
		fmt.Fprintf(os.Stderr, "[floodbench] running %s: %s\n", e.ID, e.Title)
		t0 := time.Now()
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "[floodbench] %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[floodbench] %s done in %v\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			runOne(e)
		}
		return
	}
	e, ok := bench.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	runOne(e)
}
