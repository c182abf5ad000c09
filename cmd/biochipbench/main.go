// Command biochipbench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	biochipbench [-scale quick|full] [-csv] [-j N] [-benchout FILE] all
//	biochipbench [-scale quick|full] [-csv] [-j N] [-benchout FILE] e1 [e2 ...]
//	biochipbench list
//
// Each experiment prints one table; `biochipbench list` maps experiment
// IDs to the figures and claims of the DATE'05 paper. Experiments fan out
// across -j worker goroutines (default GOMAXPROCS) — every experiment
// seeds its own RNG streams, so the tables are identical at any worker
// count. Each run also writes a BENCH.json timing artifact (disable with
// -benchout ""), including a "routing" section that times every planner
// family on the standard low-congestion routing instance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"biochip/internal/experiments"
)

// benchEntry is one experiment's timing record in the BENCH.json artifact.
type benchEntry struct {
	ID       string  `json:"id"`
	Artifact string  `json:"artifact"`
	Seconds  float64 `json:"seconds"`
	Rows     int     `json:"rows"`
	Error    string  `json:"error,omitempty"`
}

// benchReport is the BENCH.json schema.
type benchReport struct {
	Scale        string       `json:"scale"`
	Workers      int          `json:"workers"`
	GOMAXPROCS   int          `json:"gomaxprocs"`
	TotalSeconds float64      `json:"total_seconds"`
	Experiments  []benchEntry `json:"experiments"`
	// Routing times every planner family on the standard low-congestion
	// routing instance (see experiments.RoutingTimings).
	Routing []experiments.RouteTiming `json:"routing,omitempty"`
	// Cache times the E15 duplicate-heavy batch with the result cache
	// off and on, per duplicate rate (see experiments.CacheTimings).
	Cache []experiments.CacheTiming `json:"cache,omitempty"`
	// Federation times the E16 mixed batch through a gateway over
	// growing worker fleets (see experiments.FederationTimings).
	Federation []experiments.FederationTiming `json:"federation,omitempty"`
	// Observability times the E17 batch with telemetry off and on
	// (see experiments.ObsTimings).
	Observability []experiments.ObsTiming `json:"observability,omitempty"`
}

func main() {
	scaleFlag := flag.String("scale", "full", "experiment scale: quick or full")
	csvFlag := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jFlag := flag.Int("j", runtime.GOMAXPROCS(0), "experiment worker goroutines (0 = GOMAXPROCS)")
	benchOut := flag.String("benchout", "BENCH.json", "timing artifact path (empty to disable)")
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

	start := time.Now()
	results := experiments.RunEntries(entries, scale, *jFlag)
	total := time.Since(start)

	report := benchReport{
		Scale:      scale.String(),
		Workers:    *jFlag,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	failed := false
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		be := benchEntry{ID: r.Entry.ID, Artifact: r.Entry.Artifact, Seconds: r.Elapsed.Seconds()}
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "biochipbench: %s: %v\n", r.Entry.ID, r.Err)
			be.Error = r.Err.Error()
			failed = true
		} else {
			be.Rows = r.Table.NumRows()
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
		report.Experiments = append(report.Experiments, be)
	}
	report.TotalSeconds = total.Seconds()

	if *benchOut != "" {
		timings, err := experiments.RoutingTimings(scale)
		if err != nil {
			// The experiment timings are still worth writing; drop only
			// the routing section.
			fmt.Fprintln(os.Stderr, "biochipbench: routing timings skipped:", err)
		} else {
			report.Routing = timings
		}
		cacheTimings, err := experiments.CacheTimings(scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "biochipbench: cache timings skipped:", err)
		} else {
			report.Cache = cacheTimings
		}
		fedTimings, err := experiments.FederationTimings(scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "biochipbench: federation timings skipped:", err)
		} else {
			report.Federation = fedTimings
		}
		obsTimings, err := experiments.ObsTimings(scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "biochipbench: observability timings skipped:", err)
		} else {
			report.Observability = obsTimings
		}
		if err := writeBench(*benchOut, report); err != nil {
			fmt.Fprintln(os.Stderr, "biochipbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "biochipbench: %d experiments in %.2fs (-j %d) → %s\n",
			len(results), report.TotalSeconds, *jFlag, *benchOut)
	}
	if failed {
		os.Exit(1)
	}
}

func writeBench(path string, report benchReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: biochipbench [-scale quick|full] [-csv] [-j N] [-benchout FILE] {all | list | <id>...}
run "biochipbench list" to see experiment IDs`)
}
