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

// squareDie builds a side×side die config with row-parallel readout and
// serial per-die loops: in the service experiments the shards own the
// cores.
func squareDie(side int) chip.Config {
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = side, side
	cfg.SensorParallelism = side
	cfg.Parallelism = 1
	return cfg
}

// captureScan is the service experiments' standard assay: load cells,
// capture them, scan, gather them at one corner and scan again.
func captureScan(name string, cells int) assay.Program {
	return assay.Program{
		Name: name,
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

// runBatch submits reqs in order to a worker or a gateway and waits for
// every job. It returns the jobs in submission order and the batch
// wall-clock in seconds, and fails on any job that is not done.
func runBatch(b service.Backend, reqs []service.SubmitRequest) ([]service.Job, float64, error) {
	start := time.Now()
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		res, err := b.Submit(req)
		if err != nil {
			return nil, 0, err
		}
		ids[i] = res.ID
	}
	jobs := make([]service.Job, len(ids))
	for i, id := range ids {
		j, _, err := b.WaitTimeout(id, 5*time.Minute)
		if err != nil {
			return nil, 0, err
		}
		if j.Status != service.StatusDone {
			return nil, 0, fmt.Errorf("experiments: job %s: %s (%s)", id, j.Status, j.Error)
		}
		jobs[i] = j
	}
	return jobs, time.Since(start).Seconds(), nil
}

// runWorker runs reqs as one batch on a fresh in-process worker built
// from cfg, and also returns the worker's stats after the batch.
func runWorker(cfg service.Config, reqs []service.SubmitRequest) ([]service.Job, float64, service.Stats, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, 0, service.Stats{}, err
	}
	defer svc.Close()
	jobs, wall, err := runBatch(svc, reqs)
	return jobs, wall, svc.Stats(), err
}

// identical is the determinism column of E15–E17: "yes" when two runs
// of one request list returned byte-equal reports job by job.
func identical(a, b []service.Job) string {
	for i := range a {
		if !bytes.Equal(a[i].Report, b[i].Report) {
			return "NO"
		}
	}
	return "yes"
}

// E11ServiceScaling measures the sharded assay service (internal/
// service, the engine behind cmd/assayd): a fixed batch of seeded
// capture-scan programs dispatched across growing shard pools. Two
// platform claims are on display. Scaling: the dies are independent, so
// batch wall-clock should fall near-linearly with shards until the host
// saturates. Amortization: the cage-field calibration behind every die
// is served from the dep model cache, so the pool's cold-start cost is
// one solve no matter how many shards exist — the per-request verdicts
// stay bit-identical to serial replays throughout (the contract the
// service test suite enforces).
func E11ServiceScaling(scale Scale) (*table.Table, error) {
	side, cells, jobs := 48, 12, 12
	if scale == Quick {
		side, cells, jobs = 32, 6, 6
	}
	cfg := squareDie(side)
	reqs := make([]service.SubmitRequest, jobs)
	for i := range reqs {
		reqs[i] = service.SubmitRequest{Seed: seedBase(11) + uint64(i), Program: captureScan("svc-capture-scan", cells)}
	}

	t := table.New(
		fmt.Sprintf("E11 — sharded assay service: %d jobs on %d×%d dies, %d-core host",
			jobs, side, side, runtime.GOMAXPROCS(0)),
		"shards", "wall ms", "jobs/s", "speedup", "stolen", "scan errors")
	base := 0.0
	for _, shards := range []int{1, 2, 4} {
		done, elapsed, st, err := runWorker(service.Config{Shards: shards, Chip: cfg}, reqs)
		if err != nil {
			return nil, err
		}
		scanErrors := 0
		for _, j := range done {
			var rep assay.Report
			if err := json.Unmarshal(j.Report, &rep); err != nil {
				return nil, fmt.Errorf("experiments: job %s: decoding report: %w", j.ID, err)
			}
			scanErrors += rep.ScanErrors
		}
		var stolen uint64
		for _, sh := range st.PerShard {
			stolen += sh.Stolen
		}
		if base == 0 {
			base = elapsed
		}
		t.AddRow(
			fmt.Sprintf("%d", shards),
			fmt.Sprintf("%.0f", 1000*elapsed),
			fmt.Sprintf("%.1f", float64(jobs)/elapsed),
			fmt.Sprintf("%.2fx", base/elapsed),
			fmt.Sprintf("%d", stolen),
			fmt.Sprintf("%d", scanErrors),
		)
	}
	t.Note("shape: dies are independent, so speedup tracks min(shards, host cores); calibration is solved once and cache-served to every pool; results stay bit-identical to serial replays throughout")
	return t, nil
}
