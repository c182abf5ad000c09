// Command biochipbench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	biochipbench [-scale quick|full] [-csv] [-j N] all
//	biochipbench [-scale quick|full] [-csv] [-j N] e1 [e2 ...]
//	biochipbench list
//
// Each experiment prints one table; `biochipbench list` maps experiment
// IDs to the figures and claims of the DATE'05 paper. Experiments fan out
// across -j worker goroutines (default GOMAXPROCS) — every experiment
// seeds its own RNG streams, so the tables are identical at any worker
// count. The exit status is 1 when any experiment fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"biochip/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "full", "experiment scale: quick or full")
	csvFlag := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jFlag := flag.Int("j", runtime.GOMAXPROCS(0), "experiment worker goroutines (0 = GOMAXPROCS)")
	flag.Parse()

	scale := experiments.Full
	switch *scaleFlag {
	case "full":
	case "quick":
		scale = experiments.Quick
	default:
		fmt.Fprintf(os.Stderr, "biochipbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}
	if *jFlag < 0 {
		fmt.Fprintln(os.Stderr, "biochipbench: -j must be >= 0")
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if args[0] == "list" {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-5s %s\n", e.ID, e.Artifact)
		}
		return
	}

	var entries []experiments.Entry
	if args[0] == "all" {
		entries = experiments.Registry()
	} else {
		for _, id := range args {
			e, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "biochipbench:", err)
				os.Exit(2)
			}
			entries = append(entries, e)
		}
	}

	failed := false
	for i, r := range experiments.RunEntries(entries, scale, *jFlag) {
		if i > 0 {
			fmt.Println()
		}
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "biochipbench: %s: %v\n", r.Entry.ID, r.Err)
			failed = true
			continue
		}
		var err error
		if *csvFlag {
			err = r.Table.RenderCSV(os.Stdout)
		} else {
			err = r.Table.Render(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "biochipbench:", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: biochipbench [-scale quick|full] [-csv] [-j N] {all | list | <id>...}
run "biochipbench list" to see experiment IDs`)
}
