package assay

import (
	"testing"

	"biochip/internal/chip"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/route"
)

// TestGatherPlanAllocs bounds the heap allocations of one production
// plan of the benchmark's gather-route instances: about ten cages
// captured on a 32×32 die and gathered at (1,1). The planner takes its
// searcher from the route package's scratch, which kept it from the
// previous plan, and reuses it across agents and restart attempts, so
// a plan allocates a small constant per agent (the priority order, its
// path, the plan), neither one object per search node nor any scratch
// growth: a searcher built afresh for each plan costs 64–72 allocations
// on these instances. The count is deterministic: same instance, same
// allocations.
func TestGatherPlanAllocs(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = 32, 32
	cfg.SensorParallelism = 32
	cfg.Parallelism = 1
	sim, err := chip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		if err := sim.Reset(seed); err != nil {
			t.Fatal(err)
		}
		setup := Program{Name: "gather-setup", Ops: []Op{
			Load{Kind: particle.ViableCell(), Count: 9 + int(seed%3)},
			Settle{},
			Capture{},
		}}
		if _, err := ExecuteOn(sim, setup); err != nil {
			t.Fatal(err)
		}
		prob, err := GatherProblem(sim, Gather{Anchor: geom.C(1, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if len(prob.Agents) == 0 {
			t.Fatalf("seed %d: nothing captured", seed)
		}
		var plan *route.Plan
		allocs := testing.AllocsPerRun(3, func() {
			plan, err = route.Prioritized{}.Plan(prob)
		})
		if err != nil || !plan.Solved {
			t.Fatalf("seed %d: plan failed (err %v)", seed, err)
		}
		if limit := 4 * len(prob.Agents); allocs > float64(limit) {
			t.Errorf("seed %d: %.0f allocations for %d agents, want at most %d", seed, allocs, len(prob.Agents), limit)
		}
	}
}
