package experiments

import (
	"fmt"
	"runtime"

	"biochip/internal/assay"
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

	smallDie := squareDie(smallSide)
	largeDie := squareDie(largeSide)

	smallPr := captureScan("fleet-small", cells)
	largePr := captureScan("fleet-large", cells)
	largePr.Requirements = &assay.Requirements{MinCols: largeSide, MinRows: largeSide}
	reqs := make([]service.SubmitRequest, smallJobs+largeJobs)
	for i := range reqs {
		pr := smallPr
		if i >= smallJobs {
			pr = largePr
		}
		reqs[i] = service.SubmitRequest{Seed: seedBase(13) + uint64(i), Program: pr}
	}

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
		done, elapsed, st, err := runWorker(fl.cfg, reqs)
		if err != nil {
			return nil, err
		}
		smallOnSmall := 0
		for i, j := range done {
			if i >= smallJobs && j.Profile != "large" {
				return nil, fmt.Errorf("experiments: large job %s placed on %q", j.ID, j.Profile)
			}
			if i < smallJobs && j.Profile == "small" {
				smallOnSmall++
			}
		}
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
