package experiments

import (
	"fmt"
	"runtime"
	"slices"

	"biochip/internal/obs"
	"biochip/internal/service"
	"biochip/internal/table"
)

// E17ObservabilityOverhead measures the cost of span tracing
// (internal/obs) on the service it instruments: the same distinct-seed
// batch runs with obs off (Config.Obs nil — counters, latency
// histograms and gauges still run, into the service's private
// registry, but no spans are recorded) and on (the same metrics, served,
// plus a span tree per job). The obspurity rule guarantees telemetry
// cannot feed reports, so the reports must be bit-identical; the claim
// on display is cost. Each repetition runs obs off and obs on back to
// back, so host drift hits both alike; the table reports each row's
// median wall time and its min–max over the repetitions, and the
// overhead of the medians.
func E17ObservabilityOverhead(scale Scale) (*table.Table, error) {
	side, cells, jobs, shards, reps := 48, 12, 16, 4, 7
	if scale == Quick {
		side, cells, jobs, shards, reps = 32, 6, 8, 2, 3
	}
	cfg := squareDie(side)
	reqs := make([]service.SubmitRequest, jobs)
	for i := range reqs {
		reqs[i] = service.SubmitRequest{Seed: seedBase(17) + uint64(i), Program: captureScan("cache-capture-scan", cells)}
	}

	rows := []string{"obs off (metrics, no spans)", "obs on (metrics + traces)"}
	walls := make([][]float64, len(rows))
	done := make([][]service.Job, len(rows))
	for rep := 0; rep < reps; rep++ {
		for i := range rows {
			// Obs nil records metrics into the service's private
			// registry only. The result cache is off so every job
			// executes: the point is the per-execution cost of span
			// recording, not cache arithmetic.
			var reg *obs.Registry
			if i == 1 {
				reg = obs.NewRegistry()
			}
			batch, wall, _, err := runWorker(service.Config{Shards: shards, Chip: cfg,
				Cache: service.CacheConfig{Disable: true}, Obs: reg}, reqs)
			if err != nil {
				return nil, err
			}
			walls[i] = append(walls[i], wall)
			done[i] = batch
		}
	}

	t := table.New(
		fmt.Sprintf("E17 — observability overhead: %d-job batches on %d shards of %d×%d dies, median of %d interleaved runs, %d-core host",
			jobs, shards, side, side, reps, runtime.GOMAXPROCS(0)),
		"configuration", "wall ms", "min–max ms", "jobs/s", "overhead", "report identical")
	base, spread := median(walls[0]), 0.0
	for i, name := range rows {
		med, lo, hi := median(walls[i]), slices.Min(walls[i]), slices.Max(walls[i])
		spread = max(spread, (hi-lo)/med)
		overhead, same := "—", "—"
		if i > 0 {
			overhead = fmt.Sprintf("%+.1f%%", 100*(med/base-1))
			same = identical(done[0], done[i])
		}
		t.AddRow(name, fmt.Sprintf("%.1f", 1000*med), fmt.Sprintf("%.1f–%.1f", 1000*lo, 1000*hi),
			fmt.Sprintf("%.1f", float64(jobs)/med), overhead, same)
	}
	t.Note("shape: counters, latency histograms and gauges run in both rows, so the gap is the bounded span appends alone, all off the execute path, and the reports must be bit-identical — telemetry is out-of-band by construction (docs/observability.md). "+
		"The overhead compares medians; one row's runs spread over up to %.0f%% of its median here, so an overhead inside that spread is unresolved", 100*spread)
	return t, nil
}
