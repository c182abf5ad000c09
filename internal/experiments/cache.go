package experiments

import (
	"fmt"
	"runtime"

	"biochip/internal/service"
	"biochip/internal/table"
)

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
	cfg := squareDie(side)
	pr := captureScan("cache-capture-scan", cells)

	t := table.New(
		fmt.Sprintf("E15 — result cache: %d-job batches on %d shards of %d×%d dies, %d-core host",
			jobs, shards, side, side, runtime.GOMAXPROCS(0)),
		"duplicates", "cache", "wall ms", "jobs/s", "executed", "hits", "coalesced", "speedup", "identical")
	for _, dup := range []int{0, 50, 90} {
		// The batch asks for each of its distinct seeds (at least one)
		// jobs/distinct times, in round-robin order.
		distinct := max(jobs*(100-dup)/100, 1)
		reqs := make([]service.SubmitRequest, jobs)
		for i := range reqs {
			reqs[i] = service.SubmitRequest{Seed: seedBase(15) + uint64(i%distinct), Program: pr}
		}
		off, offWall, offStats, err := runWorker(service.Config{Shards: shards, Chip: cfg,
			Cache: service.CacheConfig{Disable: true}}, reqs)
		if err != nil {
			return nil, err
		}
		on, onWall, onStats, err := runWorker(service.Config{Shards: shards, Chip: cfg}, reqs)
		if err != nil {
			return nil, err
		}
		var hits, coalesced uint64
		executedOn := uint64(jobs)
		if c := onStats.Cache; c != nil {
			hits, coalesced = c.Hits, c.Coalesced
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
			identical(off, on),
		)
	}
	t.Note("shape: a duplicate costs a key lookup instead of a simulation, so speedup approaches 1/(1-dup): ~1x at 0%% duplicates, ≥5x at 90%%; reports stay bit-identical to cache-off runs throughout (the determinism contract makes whole-assay memoization sound)")
	return t, nil
}
