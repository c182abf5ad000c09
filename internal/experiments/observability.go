package experiments

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"biochip/internal/chip"
	"biochip/internal/obs"
	"biochip/internal/service"
	"biochip/internal/table"
)

// e17Batch runs one batch of distinct-seeded jobs through a fresh
// service with the given registry (nil = observability off: counters
// only, into the service's private registry) and
// returns the batch wall-clock plus one report per seed for
// bit-identity checks. The result cache is disabled so every job
// executes — the point is the per-execution cost of metrics and span
// recording, not cache arithmetic.
func e17Batch(cfg chip.Config, shards, jobs, cells int, reg *obs.Registry) (float64, map[uint64]json.RawMessage, error) {
	svc, err := service.New(service.Config{Shards: shards, Chip: cfg,
		Cache: service.CacheConfig{Disable: true}, Obs: reg})
	if err != nil {
		return 0, nil, err
	}
	defer svc.Close()
	pr := e15Program(cells)
	start := time.Now()
	ids := make([]string, jobs)
	seeds := make([]uint64, jobs)
	for i := range ids {
		seeds[i] = seedBase(17) + uint64(i)
		res, err := svc.Submit(service.SubmitRequest{Seed: seeds[i], Program: pr})
		if err != nil {
			return 0, nil, err
		}
		ids[i] = res.ID
	}
	reports := make(map[uint64]json.RawMessage, jobs)
	for i, id := range ids {
		j, err := svc.Wait(id)
		if err != nil {
			return 0, nil, err
		}
		if j.Status != service.StatusDone {
			return 0, nil, fmt.Errorf("experiments: job %s: %s (%s)", id, j.Status, j.Error)
		}
		reports[seeds[i]] = j.Report
	}
	return time.Since(start).Seconds(), reports, nil
}

// E17ObservabilityOverhead measures the cost of the observability
// layer (internal/obs) on the service it instruments: the same
// distinct-seed batch runs with obs off (Config.Obs nil — the counters
// behind /v1/stats still run, into the service's private registry, but
// no latency histograms, gauges or spans are recorded) and on
// (counters, latency histograms and a span tree per job). The
// obspurity rule guarantees telemetry cannot feed reports, so the
// reports must be bit-identical; the claim on display is cost — the
// instrumented batch must stay within 5% of the baseline wall-clock.
func E17ObservabilityOverhead(scale Scale) (*table.Table, error) {
	side, cells, jobs, shards, reps := 48, 12, 16, 4, 3
	if scale == Quick {
		side, cells, jobs, shards, reps = 32, 6, 8, 2, 2
	}
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = side, side
	cfg.SensorParallelism = side
	cfg.Parallelism = 1

	t := table.New(
		fmt.Sprintf("E17 — observability overhead: %d-job batches on %d shards of %d×%d dies, best of %d, %d-core host",
			jobs, shards, side, side, reps, runtime.GOMAXPROCS(0)),
		"configuration", "wall ms", "jobs/s", "overhead", "report identical")
	var base float64
	var baseReports map[uint64]json.RawMessage
	for _, on := range []bool{false, true} {
		name := "obs off (counters only)"
		var best float64
		var reports map[uint64]json.RawMessage
		for rep := 0; rep < reps; rep++ {
			var reg *obs.Registry
			if on {
				name = "obs on (metrics + traces)"
				reg = obs.NewRegistry()
			}
			wall, r, err := e17Batch(cfg, shards, jobs, cells, reg)
			if err != nil {
				return nil, err
			}
			if best == 0 || wall < best {
				best = wall
			}
			reports = r
		}
		identical, overhead := "—", "1.00x"
		if !on {
			base, baseReports = best, reports
		} else {
			identical = "yes"
			if !reflect.DeepEqual(baseReports, reports) {
				identical = "NO"
			}
			overhead = fmt.Sprintf("%+.1f%%", 100*(best/base-1))
		}
		t.AddRow(name, fmt.Sprintf("%.0f", 1000*best), fmt.Sprintf("%.1f", float64(jobs)/best), overhead, identical)
	}
	t.Note("shape: the counters behind /v1/stats run in both rows, so the gap is the latency histograms, gauges and bounded span appends, all off the execute path; the instrumented row must sit within 5%% of the baseline (noise-floor on loaded hosts) with bit-identical reports — telemetry is out-of-band by construction (docs/observability.md)")
	return t, nil
}

// ObsTiming is the obs-on/obs-off batch timing — the "observability"
// section of the BENCH.json artifact.
type ObsTiming struct {
	Jobs             int     `json:"jobs"`
	JobsPerSecondOff float64 `json:"jobs_per_second_off"`
	JobsPerSecondOn  float64 `json:"jobs_per_second_on"`
	OverheadPercent  float64 `json:"overhead_percent"`
	ReportsIdentical bool    `json:"reports_identical"`
}

// ObsTimings runs the E17 comparison for the BENCH.json timing
// artifact.
func ObsTimings(scale Scale) ([]ObsTiming, error) {
	side, cells, jobs, shards := 48, 12, 16, 4
	if scale == Quick {
		side, cells, jobs, shards = 32, 6, 8, 2
	}
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = side, side
	cfg.SensorParallelism = side
	cfg.Parallelism = 1

	offWall, offReports, err := e17Batch(cfg, shards, jobs, cells, nil)
	if err != nil {
		return nil, err
	}
	onWall, onReports, err := e17Batch(cfg, shards, jobs, cells, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	return []ObsTiming{{
		Jobs:             jobs,
		JobsPerSecondOff: float64(jobs) / offWall,
		JobsPerSecondOn:  float64(jobs) / onWall,
		OverheadPercent:  100 * (onWall/offWall - 1),
		ReportsIdentical: reflect.DeepEqual(offReports, onReports),
	}}, nil
}
