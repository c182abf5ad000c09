package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/service"
	"biochip/internal/table"
)

// e15Program is the capture-scan workload the cache experiment batches.
func e15Program(cells int) assay.Program {
	return assay.Program{
		Name: "cache-capture-scan",
		Ops: []assay.Op{
			assay.Load{Kind: particle.ViableCell(), Count: cells},
			assay.Settle{},
			assay.Capture{},
			assay.Scan{Averaging: 8},
			assay.Gather{Anchor: geom.C(1, 1)},
			assay.Scan{Averaging: 8},
			assay.ReleaseAll{},
		},
	}
}

// e15Batch runs one duplicate-heavy batch: jobs submissions over
// distinct seeds (seed i%distinct), so each distinct result is asked
// for jobs/distinct times. It returns the batch wall-clock, the final
// service stats, and one report per seed for bit-identity checks.
func e15Batch(cfg chip.Config, shards, jobs, distinct, cells int, disable bool) (float64, service.Stats, map[uint64]json.RawMessage, error) {
	svc, err := service.New(service.Config{Shards: shards, Chip: cfg,
		Cache: service.CacheConfig{Disable: disable}})
	if err != nil {
		return 0, service.Stats{}, nil, err
	}
	defer svc.Close()
	pr := e15Program(cells)
	start := time.Now()
	ids := make([]string, jobs)
	seeds := make([]uint64, jobs)
	for i := range ids {
		seeds[i] = seedBase(15) + uint64(i%distinct)
		res, err := svc.Submit(service.SubmitRequest{Seed: seeds[i], Program: pr})
		if err != nil {
			return 0, service.Stats{}, nil, err
		}
		ids[i] = res.ID
	}
	reports := make(map[uint64]json.RawMessage, distinct)
	for i, id := range ids {
		j, err := svc.Wait(id)
		if err != nil {
			return 0, service.Stats{}, nil, err
		}
		if j.Status != service.StatusDone {
			return 0, service.Stats{}, nil, fmt.Errorf("experiments: job %s: %s (%s)", id, j.Status, j.Error)
		}
		if ref, ok := reports[seeds[i]]; !ok {
			reports[seeds[i]] = j.Report
		} else if !bytes.Equal(ref, j.Report) {
			return 0, service.Stats{}, nil, fmt.Errorf("experiments: seed %d: duplicate report differs", seeds[i])
		}
	}
	elapsed := time.Since(start).Seconds()
	return elapsed, svc.Stats(), reports, nil
}

// e15DupRates are the duplicate fractions of the batch, in percent.
var e15DupRates = []int{0, 50, 90}

// e15Distinct maps a duplicate percentage to the number of distinct
// seeds in a batch of the given size (at least one).
func e15Distinct(jobs, dupPercent int) int {
	d := jobs * (100 - dupPercent) / 100
	if d < 1 {
		d = 1
	}
	return d
}

// E15CacheThroughput measures the content-addressed result cache
// (internal/cache + the service Submit fast path) on the workload it
// exists for: a duplicate-heavy batch, as produced by parameter sweeps
// that re-verify a baseline point, retried clients, and dashboards
// re-requesting reference assays. The same batch runs with the cache
// off (every submission executes, the pre-cache service) and on
// (duplicates are answered from the cache or coalesced onto an
// identical in-flight job). Executions are pure functions of (program,
// seed, profile config) — the determinism contract — so served
// duplicates are bit-identical to fresh runs; the claim on display is
// pure throughput: at a 90% duplicate rate the cache must deliver ≥5×
// the jobs/s of the cache-off baseline.
func E15CacheThroughput(scale Scale) (*table.Table, error) {
	side, cells, jobs, shards := 48, 12, 40, 4
	if scale == Quick {
		side, cells, jobs, shards = 32, 6, 20, 2
	}
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = side, side
	cfg.SensorParallelism = side
	cfg.Parallelism = 1

	t := table.New(
		fmt.Sprintf("E15 — result cache: %d-job batches on %d shards of %d×%d dies, %d-core host",
			jobs, shards, side, side, runtime.GOMAXPROCS(0)),
		"duplicates", "cache", "wall ms", "jobs/s", "executed", "hits", "coalesced", "speedup", "identical")
	for _, dup := range e15DupRates {
		distinct := e15Distinct(jobs, dup)
		offWall, offStats, offReports, err := e15Batch(cfg, shards, jobs, distinct, cells, true)
		if err != nil {
			return nil, err
		}
		onWall, onStats, onReports, err := e15Batch(cfg, shards, jobs, distinct, cells, false)
		if err != nil {
			return nil, err
		}
		identical := "yes"
		for seed, ref := range offReports {
			if !bytes.Equal(ref, onReports[seed]) {
				identical = "NO"
			}
		}
		var hits, coalesced uint64
		executedOn := uint64(jobs)
		if c := onStats.Cache; c != nil {
			hits, coalesced = c.Hits+c.DiskHits, c.Coalesced
			executedOn = c.Misses
		}
		t.AddRow(
			fmt.Sprintf("%d%%", dup),
			"off",
			fmt.Sprintf("%.0f", 1000*offWall),
			fmt.Sprintf("%.1f", float64(jobs)/offWall),
			fmt.Sprintf("%d", offStats.Done),
			"—", "—", "1.00x", "—",
		)
		t.AddRow(
			fmt.Sprintf("%d%%", dup),
			"on",
			fmt.Sprintf("%.0f", 1000*onWall),
			fmt.Sprintf("%.1f", float64(jobs)/onWall),
			fmt.Sprintf("%d", executedOn),
			fmt.Sprintf("%d", hits),
			fmt.Sprintf("%d", coalesced),
			fmt.Sprintf("%.2fx", offWall/onWall),
			identical,
		)
	}
	t.Note("shape: a duplicate costs a key lookup instead of a simulation, so speedup approaches 1/(1-dup): ~1x at 0%% duplicates, ≥5x at 90%%; reports stay bit-identical to cache-off runs throughout (the determinism contract makes whole-assay memoization sound)")
	return t, nil
}

// CacheTiming is one duplicate rate's cache-on/cache-off timing — the
// "cache" section of the BENCH.json artifact.
type CacheTiming struct {
	DupPercent       int     `json:"dup_percent"`
	Jobs             int     `json:"jobs"`
	JobsPerSecondOff float64 `json:"jobs_per_second_off"`
	JobsPerSecondOn  float64 `json:"jobs_per_second_on"`
	Speedup          float64 `json:"speedup"`
	Hits             uint64  `json:"hits"`
	Coalesced        uint64  `json:"coalesced"`
}

// CacheTimings runs the E15 duplicate-rate sweep for the BENCH.json
// timing artifact.
func CacheTimings(scale Scale) ([]CacheTiming, error) {
	side, cells, jobs, shards := 48, 12, 40, 4
	if scale == Quick {
		side, cells, jobs, shards = 32, 6, 20, 2
	}
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = side, side
	cfg.SensorParallelism = side
	cfg.Parallelism = 1

	out := make([]CacheTiming, 0, len(e15DupRates))
	for _, dup := range e15DupRates {
		distinct := e15Distinct(jobs, dup)
		offWall, _, _, err := e15Batch(cfg, shards, jobs, distinct, cells, true)
		if err != nil {
			return nil, err
		}
		onWall, onStats, _, err := e15Batch(cfg, shards, jobs, distinct, cells, false)
		if err != nil {
			return nil, err
		}
		ct := CacheTiming{
			DupPercent:       dup,
			Jobs:             jobs,
			JobsPerSecondOff: float64(jobs) / offWall,
			JobsPerSecondOn:  float64(jobs) / onWall,
			Speedup:          offWall / onWall,
		}
		if c := onStats.Cache; c != nil {
			ct.Hits, ct.Coalesced = c.Hits+c.DiskHits, c.Coalesced
		}
		out = append(out, ct)
	}
	return out, nil
}
