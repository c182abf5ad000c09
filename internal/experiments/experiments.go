// Package experiments regenerates every evaluation artifact of the paper
// — its three figures and its quantitative claims — as parameterized,
// reproducible experiments. Each experiment returns a table.Table whose
// rows are the series the paper reports (or implies); Registry (printed
// by `biochipbench list`) maps each experiment to its artifact.
//
// All experiments accept a Scale so the same code serves the full
// harness (cmd/biochipbench), the test suite and the testing.B
// benchmarks in bench_test.go.
package experiments

import "fmt"

// Scale selects experiment sizing.
type Scale int

// Experiment scales.
const (
	// Quick runs in well under a second — used by unit tests.
	Quick Scale = iota
	// Full is the paper-scale configuration used by cmd/biochipbench.
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == Quick {
		return "quick"
	}
	return "full"
}

// mcRuns returns the Monte-Carlo campaign size for the scale.
func (s Scale) mcRuns() int {
	if s == Quick {
		return 60
	}
	return 1000
}

// seedBase namespaces experiment seeds so tables are independent.
func seedBase(exp int) uint64 { return uint64(exp) * 1_000_003 }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
