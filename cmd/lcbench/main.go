// Command lcbench regenerates the paper's evaluation: every row of
// Table 1 and every figure-level invariant, as indexed in DESIGN.md §4
// (experiments E1–E10 and F1–F6). For each experiment it prints the
// paper's claim, the measured series, fitted growth exponents and a
// pass/fail verdict, and writes the raw series as CSV.
//
// Serving-stack performance is not measured here: `go run ./bench` is
// the one perf ledger (bench/README.md), and the engine's and server's
// performance bars are ordinary tests in their packages.
//
// Usage:
//
//	lcbench [-quick] [-seed N] [-out DIR] [-only E1,E7,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"linconstraint/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale")
	seed := flag.Int64("seed", 1, "experiment RNG seed")
	out := flag.String("out", "results", "directory for CSV output")
	only := flag.String("only", "", "comma-separated experiment ids to run (default all)")
	flag.Parse()

	cfg := harness.Config{Seed: *seed, Quick: *quick}
	all := map[string]func(harness.Config) harness.Result{
		"E1": harness.E1, "E2": harness.E2, "E3": harness.E3, "E4": harness.E4,
		"E5": harness.E5, "E6": harness.E6, "E7": harness.E7, "E8": harness.E8,
		"E9": harness.E9, "E10": harness.E10,
		"F1": harness.F1, "F2": harness.F2, "F3": harness.F3,
		"F45": harness.F45, "F6": harness.F6,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "F1", "F2", "F3", "F45", "F6"}

	var results []harness.Result
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			fn, ok := all[strings.TrimSpace(id)]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
				os.Exit(2)
			}
			results = append(results, fn(cfg))
		}
	} else {
		for _, id := range order {
			fmt.Fprintf(os.Stderr, "running %s...\n", id)
			results = append(results, all[id](cfg))
		}
	}

	fmt.Print(harness.Markdown(results))
	fmt.Println("Summary")
	fmt.Println("-------")
	fmt.Print(harness.Summary(results))

	if err := harness.WriteCSV(*out, results); err != nil {
		fmt.Fprintf(os.Stderr, "writing CSV: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nCSV series written to %s/\n", *out)

	for _, r := range results {
		if !r.Pass {
			os.Exit(1)
		}
	}
}
