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

// E13HeterogeneousFleet measures capability-aware scheduling over a
// mixed-die fleet (internal/service profiles): a mixed batch — mostly
// small-die programs plus some that only a large die can run — is
// dispatched to (a) a heterogeneous fleet of small and large dies and
// (b) a homogeneous pool of the same total die count, every die sized
// to the largest requirement. The homogeneous pool can run everything,
// but it runs the small jobs on needlessly large dies — more cage
// sites to program, settle and scan — so the heterogeneous fleet wins
// the batch wall-clock while executing the very same work, with every
// report still bit-identical to a serial replay under the die config
// that ran it (the fleet determinism contract; the service test suite
// enforces it end-to-end).
func E13HeterogeneousFleet(scale Scale) (*table.Table, error) {
	smallSide, largeSide := 32, 64
	smallJobs, largeJobs, cells := 8, 2, 8
	if scale == Quick {
		smallSide, largeSide = 24, 48
		smallJobs, largeJobs, cells = 4, 2, 5
	}

	smallDie := fleetDie(smallSide)
	largeDie := fleetDie(largeSide)

	smallPr := assay.Program{
		Name: "fleet-small",
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
	largePr := smallPr
	largePr.Name = "fleet-large"
	largePr.Requirements = &assay.Requirements{MinCols: largeSide, MinRows: largeSide}

	fleets := []struct {
		name string
		cfg  service.Config
	}{
		{
			fmt.Sprintf("heterogeneous %d+%d", 2, 2),
			service.Config{Profiles: []service.Profile{
				{Name: "small", Shards: 2, Chip: smallDie},
				{Name: "large", Shards: 2, Chip: largeDie},
			}},
		},
		{
			"homogeneous 4×large",
			service.Config{Profiles: []service.Profile{
				{Name: "large", Shards: 4, Chip: largeDie},
			}},
		},
	}

	t := table.New(
		fmt.Sprintf("E13 — heterogeneous fleet: %d small + %d large jobs, %d×%d vs %d×%d dies, %d-core host",
			smallJobs, largeJobs, smallSide, smallSide, largeSide, largeSide, runtime.GOMAXPROCS(0)),
		"fleet", "wall ms", "jobs/s", "small on small", "stolen", "rel wall")
	base := 0.0
	for _, fl := range fleets {
		svc, err := service.New(fl.cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		type sub struct {
			id    string
			large bool
		}
		subs := make([]sub, 0, smallJobs+largeJobs)
		for i := 0; i < smallJobs+largeJobs; i++ {
			pr := smallPr
			if i >= smallJobs {
				pr = largePr
			}
			res, err := svc.Submit(service.SubmitRequest{Seed: seedBase(13) + uint64(i), Program: pr})
			if err != nil {
				svc.Close()
				return nil, err
			}
			subs = append(subs, sub{id: res.ID, large: i >= smallJobs})
		}
		smallOnSmall := 0
		for _, su := range subs {
			j, err := svc.Wait(su.id)
			if err != nil {
				svc.Close()
				return nil, err
			}
			if j.Status != service.StatusDone {
				svc.Close()
				return nil, fmt.Errorf("experiments: job %s: %s (%s)", su.id, j.Status, j.Error)
			}
			if su.large && j.Profile != "large" {
				svc.Close()
				return nil, fmt.Errorf("experiments: large job %s placed on %q", su.id, j.Profile)
			}
			if !su.large && j.Profile == "small" {
				smallOnSmall++
			}
		}
		elapsed := time.Since(start).Seconds()
		st := svc.Stats()
		svc.Close()
		var stolen uint64
		for _, ps := range st.Profiles {
			stolen += ps.Stolen
		}
		if base == 0 {
			base = elapsed
		}
		t.AddRow(
			fl.name,
			fmt.Sprintf("%.0f", 1000*elapsed),
			fmt.Sprintf("%.1f", float64(smallJobs+largeJobs)/elapsed),
			fmt.Sprintf("%d/%d", smallOnSmall, smallJobs),
			fmt.Sprintf("%d", stolen),
			fmt.Sprintf("%.2fx", elapsed/base),
		)
	}
	t.Note("shape: both fleets run the same batch with the same per-job results; the homogeneous pool wastes large dies on small jobs (more sites to program/settle/scan), so its relative wall-clock (vs the heterogeneous fleet's 1.00x) exceeds 1 — capability-aware placement is the win")
	return t, nil
}

// fleetDie builds a square die config for fleet experiments: serial
// per-die loops (the fleet owns the cores) and row-parallel readout.
func fleetDie(side int) chip.Config {
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = side, side
	cfg.SensorParallelism = side
	cfg.Parallelism = 1
	return cfg
}
