package biochip

import (
	"reflect"
	"testing"

	"biochip/internal/units"
)

func TestFacadeDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Array.NumElectrodes() < 100000 {
		t.Errorf("default platform has %d electrodes; paper claims >100,000",
			cfg.Array.NumElectrodes())
	}
}

func TestFacadeEndToEndSmall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = 40, 40
	cfg.SensorParallelism = 40
	cfg.Seed = 3

	pr := AssayProgram{
		Name: "facade-smoke",
		Ops: []AssayOp{
			OpLoad{Kind: ViableCell(), Count: 6},
			OpSettle{},
			OpCapture{},
			OpScan{Averaging: 8},
			OpGather{Anchor: C(1, 1)},
			OpReleaseAll{},
		},
	}
	rep, err := RunAssay(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trapped == 0 || rep.Duration <= 0 {
		t.Errorf("implausible report: %+v", rep)
	}
	est, err := EstimateAssayDuration(pr, cfg)
	if err != nil || est <= 0 {
		t.Errorf("estimate failed: %g %v", est, err)
	}
}

func TestFacadeRouting(t *testing.T) {
	p := RouteProblem{Cols: 30, Rows: 30, Agents: []RouteAgent{
		{ID: 0, Start: C(1, 1), Goal: C(25, 25)},
		{ID: 1, Start: C(25, 1), Goal: C(1, 25)},
	}}
	plan, err := PlanRoutes(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Solved {
		t.Fatal("facade routing failed")
	}
	if err := CheckPlan(p, plan); err != nil {
		t.Fatal(err)
	}
	if NewGreedyPlanner().Name() == NewPrioritizedPlanner().Name() {
		t.Error("planners should be distinct")
	}
}

func TestFacadeTechSelection(t *testing.T) {
	best, err := SelectNode(DefaultTechRequirements())
	if err != nil {
		t.Fatal(err)
	}
	if best.Node.VddIO < 5 {
		t.Errorf("paper's C1 violated: best node %s has VddIO %g",
			best.Node.Name, best.Node.VddIO)
	}
	if len(TechNodes()) < 6 || len(RankNodes(DefaultTechRequirements())) == 0 {
		t.Error("node database incomplete")
	}
}

func TestFacadeFabAndFlows(t *testing.T) {
	if len(FabCatalog()) != 4 {
		t.Errorf("catalog size = %d", len(FabCatalog()))
	}
	dfr := DryFilmResist()
	if dfr.TurnaroundDays > 3 {
		t.Error("dry-film turnaround should honour the paper's 2-3 days")
	}
	bt, err := CompareFlows(BuildAndTestFlow, FluidicProject(), dfr, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := CompareFlows(SimulateFirstFlow, FluidicProject(), dfr, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Days.Median() >= sf.Days.Median() {
		t.Error("fluidic regime should favour build-and-test")
	}
}

func TestFacadePlannersAndPostOptimizers(t *testing.T) {
	p := RouteProblem{Cols: 40, Rows: 40, Agents: []RouteAgent{
		{ID: 0, Start: C(1, 1), Goal: C(35, 35)},
		{ID: 1, Start: C(35, 1), Goal: C(1, 35)},
		{ID: 2, Start: C(1, 35), Goal: C(35, 1)},
	}}
	for _, pl := range []Planner{NewGreedyPlanner(), NewWindowedPlanner(), NewPrioritizedPlanner()} {
		plan, err := pl.Plan(p)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if !plan.Solved {
			if pl.Name() == "greedy" {
				continue // the baseline may livelock
			}
			t.Fatalf("%s failed a 3-agent crossing", pl.Name())
		}
		if err := CheckPlan(p, plan); err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		refined, _ := RefinePlan(p, plan, 2)
		if err := CheckPlan(p, refined); err != nil {
			t.Fatalf("%s refined: %v", pl.Name(), err)
		}
		compacted, _ := CompactPlan(p, refined)
		if err := CheckPlan(p, compacted); err != nil {
			t.Fatalf("%s compacted: %v", pl.Name(), err)
		}
	}
}

func TestFacadeProbeAndWashAssay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = 40, 40
	cfg.SensorParallelism = 40
	cfg.Seed = 17
	rep, err := RunAssay(AssayProgram{
		Name: "facade-isolation",
		Ops: []AssayOp{
			OpLoad{Kind: ViableCell(), Count: 5},
			OpLoad{Kind: NonViableCell(), Count: 5},
			OpSettle{},
			OpCapture{},
			OpProbe{Frequency: 1e4},
			OpWash{Volumes: 4},
		},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProbeKept == 0 || rep.ProbeEjected == 0 || rep.Washed == 0 {
		t.Errorf("isolation pipeline incomplete: %+v", rep)
	}
}

func TestFacadeCagePhysics(t *testing.T) {
	m, err := NewCageModel(DefaultCageSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := m.MaxDragSpeed(10*units.Micron, -0.4, units.WaterViscosity)
	if v <= 0 {
		t.Error("cage model should predict a positive drag speed")
	}
}

func TestFacadeAssayService(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = 40, 40
	cfg.SensorParallelism = 40
	cfg.Parallelism = 1

	svc, err := NewAssayService(ServiceConfig{Shards: 2, Chip: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	pr := AssayProgram{
		Name: "facade-service",
		Ops: []AssayOp{
			OpLoad{Kind: ViableCell(), Count: 6},
			OpSettle{},
			OpCapture{},
			OpScan{Averaging: 8},
			OpReleaseAll{},
		},
	}
	res, err := svc.Submit(SubmitRequest{Seed: 9, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc.Wait(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.Report == nil || job.Report.Trapped == 0 {
		t.Fatalf("implausible job: %+v", job)
	}
	// The service result must match a serial replay with the same seed.
	serial := cfg
	serial.Seed = 9
	want, err := RunAssay(pr, serial)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(job.Report, want) {
		t.Error("service report differs from serial replay")
	}
	if st := svc.Stats(); st.Done != 1 {
		t.Errorf("stats.Done = %d, want 1", st.Done)
	}
}
