package experiments

import (
	"biochip/internal/parallel"
	"biochip/internal/table"
)

// Result is one experiment's outcome from a concurrent campaign.
type Result struct {
	// Entry is the registry entry that ran.
	Entry Entry
	// Table is the produced table; nil when Err is set.
	Table *table.Table
	// Err is the experiment failure, if any.
	Err error
}

// RunEntries runs the given experiments at the scale, fanning them out
// across up to workers goroutines (0 means GOMAXPROCS). Every experiment
// seeds its own RNG streams from its registry ID, so concurrent runs
// produce exactly the tables a serial loop would; results come back in
// input order regardless of completion order.
func RunEntries(entries []Entry, scale Scale, workers int) []Result {
	results := make([]Result, len(entries))
	parallel.For(workers, len(entries), func(i int) {
		tbl, err := entries[i].Run(scale)
		results[i] = Result{Entry: entries[i], Table: tbl, Err: err}
	})
	return results
}

// RunAll runs every registered experiment concurrently — the whole
// paper-evaluation suite as one campaign. See RunEntries.
func RunAll(scale Scale, workers int) []Result {
	return RunEntries(Registry(), scale, workers)
}
