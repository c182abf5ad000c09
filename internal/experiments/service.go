package experiments

import (
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
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = side, side
	cfg.SensorParallelism = side
	cfg.Parallelism = 1 // shards own the cores; dies run serially

	pr := assay.Program{
		Name: "svc-capture-scan",
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

	t := table.New(
		fmt.Sprintf("E11 — sharded assay service: %d jobs on %d×%d dies, %d-core host",
			jobs, side, side, runtime.GOMAXPROCS(0)),
		"shards", "wall ms", "jobs/s", "speedup", "stolen", "scan errors")
	base := 0.0
	for _, shards := range []int{1, 2, 4} {
		svc, err := service.New(service.Config{Shards: shards, Chip: cfg})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ids := make([]string, jobs)
		for i := range ids {
			res, err := svc.Submit(service.SubmitRequest{Seed: seedBase(11) + uint64(i), Program: pr})
			if err != nil {
				svc.Close()
				return nil, err
			}
			ids[i] = res.ID
		}
		scanErrors := 0
		for _, id := range ids {
			j, err := svc.Wait(id)
			if err != nil {
				svc.Close()
				return nil, err
			}
			if j.Status != service.StatusDone {
				svc.Close()
				return nil, fmt.Errorf("experiments: job %s: %s (%s)", id, j.Status, j.Error)
			}
			scanErrors += j.Report.ScanErrors
		}
		elapsed := time.Since(start).Seconds()
		st := svc.Stats()
		svc.Close()
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
