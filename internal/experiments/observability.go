package experiments

import (
	"fmt"
	"runtime"

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
// on display is cost — the traced batch must stay within 5% of the
// baseline wall-clock.
func E17ObservabilityOverhead(scale Scale) (*table.Table, error) {
	side, cells, jobs, shards, reps := 48, 12, 16, 4, 3
	if scale == Quick {
		side, cells, jobs, shards, reps = 32, 6, 8, 2, 2
	}
	cfg := squareDie(side)
	reqs := make([]service.SubmitRequest, jobs)
	for i := range reqs {
		reqs[i] = service.SubmitRequest{Seed: seedBase(17) + uint64(i), Program: captureScan("cache-capture-scan", cells)}
	}

	t := table.New(
		fmt.Sprintf("E17 — observability overhead: %d-job batches on %d shards of %d×%d dies, best of %d, %d-core host",
			jobs, shards, side, side, reps, runtime.GOMAXPROCS(0)),
		"configuration", "wall ms", "jobs/s", "overhead", "report identical")
	var base float64
	var baseJobs []service.Job
	for _, on := range []bool{false, true} {
		name := "obs off (metrics, no spans)"
		if on {
			name = "obs on (metrics + traces)"
		}
		var best float64
		var done []service.Job
		for rep := 0; rep < reps; rep++ {
			// Obs nil records metrics into the service's private
			// registry only. The result cache is off so every job
			// executes: the point is the per-execution cost of span
			// recording, not cache arithmetic.
			var reg *obs.Registry
			if on {
				reg = obs.NewRegistry()
			}
			batch, wall, _, err := runWorker(service.Config{Shards: shards, Chip: cfg,
				Cache: service.CacheConfig{Disable: true}, Obs: reg}, reqs)
			if err != nil {
				return nil, err
			}
			if best == 0 || wall < best {
				best = wall
			}
			done = batch
		}
		same, overhead := "—", "1.00x"
		if !on {
			base, baseJobs = best, done
		} else {
			same = identical(baseJobs, done)
			overhead = fmt.Sprintf("%+.1f%%", 100*(best/base-1))
		}
		t.AddRow(name, fmt.Sprintf("%.0f", 1000*best), fmt.Sprintf("%.1f", float64(jobs)/best), overhead, same)
	}
	t.Note("shape: counters, latency histograms and gauges run in both rows, so the gap is the bounded span appends alone, all off the execute path; the traced row must sit within 5%% of the baseline (noise-floor on loaded hosts) with bit-identical reports — telemetry is out-of-band by construction (docs/observability.md)")
	return t, nil
}
