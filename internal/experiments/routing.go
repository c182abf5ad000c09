package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"biochip/internal/route"
	"biochip/internal/table"
)

// planOrPartial runs a planner, treating the windowed planner's typed
// round-budget error as an ordinary unsolved result (the partial plan is
// what the table reports).
func planOrPartial(pl route.Planner, prob route.Problem) (*route.Plan, error) {
	plan, err := pl.Plan(prob)
	if err != nil && !errors.As(err, new(*route.RoundsExhaustedError)) {
		return nil, err
	}
	return plan, nil
}

// E7Routing benchmarks the manipulation CAD: greedy baseline vs the
// prioritized space-time A* router on random instances of growing
// density. The shape: greedy starts failing (livelock) or inflating
// makespan as density grows; prioritized keeps solving with a gentler
// makespan curve.
func E7Routing(scale Scale) (*table.Table, error) {
	grid := 128
	sizes := []int{8, 32, 64, 128}
	if scale == Quick {
		grid = 64
		sizes = []int{4, 8, 16}
	}
	t := table.New(
		fmt.Sprintf("E7 (§1 manipulation) — concurrent cell routing on a %d×%d grid", grid, grid),
		"cells", "planner", "solved", "makespan", "total moves", "plan time")
	planners := []route.Planner{route.Greedy{}, route.Windowed{}, route.Prioritized{}}
	for _, n := range sizes {
		prob, err := route.RandomProblem(grid, grid, n, seedBase(7)+uint64(n))
		if err != nil {
			return nil, err
		}
		for _, pl := range planners {
			start := time.Now()
			plan, err := planOrPartial(pl, prob)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			solved := "yes"
			if !plan.Solved {
				solved = "NO"
			}
			t.AddRow(
				fmt.Sprintf("%d", n),
				pl.Name(),
				solved,
				fmt.Sprintf("%d", plan.Makespan),
				fmt.Sprintf("%d", plan.TotalMoves),
				elapsed.Round(time.Millisecond).String(),
			)
		}
	}
	t.Note("shape: prioritized stays solved with bounded makespan growth; greedy degrades under congestion")
	return t, nil
}

// E7Ablation compares priority orderings of the prioritized planner on a
// congested transpose workload — the design-choice ablation for the
// router (docs/routing.md's planner table lists the orderings).
func E7Ablation(scale Scale) (*table.Table, error) {
	grid, n := 96, 24
	if scale == Quick {
		grid, n = 48, 8
	}
	prob, err := route.TransposeProblem(grid, grid, n)
	if err != nil {
		return nil, err
	}
	t := table.New(
		fmt.Sprintf("E7b — priority-order ablation on transpose-%d (%d×%d)", n, grid, grid),
		"ordering", "solved", "makespan", "total moves")
	planners := []route.Planner{
		route.Prioritized{Order: route.LongestFirst},
		route.Prioritized{Order: route.ShortestFirst},
		route.Prioritized{Order: route.DeclaredOrder},
		route.Prioritized{Order: route.RandomOrder, Seed: seedBase(7)},
	}
	for _, pl := range planners {
		plan, err := pl.Plan(prob)
		if err != nil {
			return nil, err
		}
		solved := "yes"
		if !plan.Solved {
			solved = "NO"
		}
		t.AddRow(pl.Name(), solved, fmt.Sprintf("%d", plan.Makespan),
			fmt.Sprintf("%d", plan.TotalMoves))
	}
	t.Note("shape: longest-first gives long routes first claim on the table; shortest-first typically pays for it")
	return t, nil
}

// e12Workloads builds the three congestion regimes E12 sweeps: sparse
// local traffic on the paper-scale array (the partitioning sweet spot),
// random all-to-all, and transpose crossing traffic (worst case — the
// whole instance is one interaction cluster).
func e12Workloads(scale Scale) (names []string, probs []route.Problem, err error) {
	grid, agents, radius := 320, 64, 6
	if scale == Quick {
		grid, agents = 160, 16
	}
	local, err := route.LocalProblem(grid, grid, agents, radius, seedBase(12))
	if err != nil {
		return nil, nil, err
	}
	random, err := route.RandomProblem(grid/2, grid/2, agents, seedBase(12)+1)
	if err != nil {
		return nil, nil, err
	}
	transpose, err := route.TransposeProblem(grid/2, grid/2, agents/2)
	if err != nil {
		return nil, nil, err
	}
	names = []string{
		fmt.Sprintf("local-%d (low)", agents),
		fmt.Sprintf("random-%d (mid)", agents),
		fmt.Sprintf("transpose-%d (high)", agents/2),
	}
	return names, []route.Problem{local, random, transpose}, nil
}

// E12PartitionedRouting measures the partition-parallel router against
// the serial production planner across congestion regimes. Low
// congestion decomposes into many interaction clusters: each cluster
// plans in a confined region against tables sized to that region, and
// clusters fan out across workers — both effects compound into the
// speedup. High congestion collapses to one cluster and the meta-planner
// degrades gracefully to the serial planner (plus a validation pass).
func E12PartitionedRouting(scale Scale) (*table.Table, error) {
	names, probs, err := e12Workloads(scale)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4 // the paper-scale claim is made at ≥ 4 workers
	}
	reps := 5
	if scale == Quick {
		reps = 2
	}
	t := table.New(
		fmt.Sprintf("E12 — partition-parallel routing CAD vs serial prioritized (%d-core host)",
			runtime.GOMAXPROCS(0)),
		"instance", "clusters", "prioritized", fmt.Sprintf("partitioned -j%d", workers),
		"speedup", "makespan Δ")
	for wi, prob := range probs {
		clusters := route.PartitionProblem(prob)
		serial := time.Duration(1<<62 - 1)
		var serialPlan *route.Plan
		for r := 0; r < reps; r++ {
			start := time.Now()
			plan, err := (route.Prioritized{}).Plan(prob)
			if err != nil {
				return nil, err
			}
			if d := time.Since(start); d < serial {
				serial = d
			}
			serialPlan = plan
		}
		par := time.Duration(1<<62 - 1)
		var parPlan *route.Plan
		for r := 0; r < reps; r++ {
			start := time.Now()
			plan, err := (route.Partitioned{Parallelism: workers}).Plan(prob)
			if err != nil {
				return nil, err
			}
			if d := time.Since(start); d < par {
				par = d
			}
			parPlan = plan
		}
		if !serialPlan.Solved || !parPlan.Solved {
			return nil, fmt.Errorf("experiments: e12 instance %q unsolved", names[wi])
		}
		if err := route.CheckPlan(prob, parPlan); err != nil {
			return nil, fmt.Errorf("experiments: e12 %q: %w", names[wi], err)
		}
		t.AddRow(
			names[wi],
			fmt.Sprintf("%d", len(clusters)),
			serial.Round(time.Microsecond).String(),
			par.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(serial)/float64(par)),
			fmt.Sprintf("%+d", parPlan.Makespan-serialPlan.Makespan),
		)
	}
	t.Note("shape: many clusters → confined sub-searches and parallel fan-out beat one die-wide table on the low-congestion paper-scale instance; one cluster → direct delegation to the serial planner")
	return t, nil
}
