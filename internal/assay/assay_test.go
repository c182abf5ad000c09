package assay

import (
	"errors"
	"strings"
	"testing"

	"biochip/internal/chip"
	"biochip/internal/geom"
	"biochip/internal/particle"
)

func testConfig() chip.Config {
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = 40, 40
	cfg.SensorParallelism = 40
	return cfg
}

func sortingProgram(n int) Program {
	return Program{
		Name: "test-sort",
		Ops: []Op{
			Load{Kind: particle.ViableCell(), Count: n},
			Settle{},
			Capture{},
			Scan{Averaging: 16},
			Gather{Anchor: geom.C(1, 1)},
			Scan{Averaging: 16},
			ReleaseAll{},
		},
	}
}

func TestProgramCheckAcceptsCanonical(t *testing.T) {
	if err := sortingProgram(10).Check(testConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestProgramCheckOrdering(t *testing.T) {
	cfg := testConfig()
	cases := []struct {
		name string
		ops  []Op
	}{
		{"empty", nil},
		{"capture-first", []Op{Capture{}}},
		{"gather-before-capture", []Op{Load{Kind: particle.ViableCell(), Count: 1}, Gather{Anchor: geom.C(1, 1)}}},
		{"scan-before-capture", []Op{Load{Kind: particle.ViableCell(), Count: 1}, Scan{Averaging: 1}}},
		{"release-before-capture", []Op{Load{Kind: particle.ViableCell(), Count: 1}, ReleaseAll{}}},
		{"zero-load", []Op{Load{Kind: particle.ViableCell(), Count: 0}}},
		{"negative-settle", []Op{Load{Kind: particle.ViableCell(), Count: 1}, Settle{Duration: -1}}},
		{"zero-averaging", []Op{Load{Kind: particle.ViableCell(), Count: 1}, Capture{}, Scan{Averaging: 0}}},
	}
	for _, c := range cases {
		if err := (Program{Name: c.name, Ops: c.ops}).Check(cfg); err == nil {
			t.Errorf("%s should fail Check", c.name)
		}
	}
}

// TestProgramCheckOpCount: a program of MaxOps operations passes both
// checks, and one more operation fails both with *OpCountError.
func TestProgramCheckOpCount(t *testing.T) {
	cfg := testConfig()
	ops := []Op{Load{Kind: particle.ViableCell(), Count: 1}, Capture{}}
	for len(ops) < MaxOps {
		ops = append(ops, Scan{Averaging: 1})
	}
	at := Program{Name: "at-limit", Ops: ops}
	if err := at.CheckOps(); err != nil {
		t.Fatalf("CheckOps at %d ops: %v", MaxOps, err)
	}
	if err := at.Check(cfg); err != nil {
		t.Fatalf("Check at %d ops: %v", MaxOps, err)
	}
	over := Program{Name: "over-limit", Ops: append(ops, ReleaseAll{})}
	for name, err := range map[string]error{"CheckOps": over.CheckOps(), "Check": over.Check(cfg)} {
		var oc *OpCountError
		if !errors.As(err, &oc) || oc.Ops != MaxOps+1 {
			t.Errorf("%s at %d ops: %v, want *OpCountError{Ops: %d}", name, MaxOps+1, err, MaxOps+1)
		}
	}
}

func TestProgramCheckCapacity(t *testing.T) {
	cfg := testConfig()
	over := Program{Ops: []Op{Load{Kind: particle.ViableCell(), Count: 100000}}}
	if err := over.Check(cfg); err == nil {
		t.Error("overloading the array should fail")
	}
}

func TestProgramCheckGatherFit(t *testing.T) {
	cfg := testConfig()
	bad := Program{Ops: []Op{
		Load{Kind: particle.ViableCell(), Count: 50},
		Capture{},
		Gather{Anchor: geom.C(37, 37)}, // corner: no room for 50 cages
	}}
	if err := bad.Check(cfg); err == nil {
		t.Error("unfittable gather should fail Check")
	}
	outside := Program{Ops: []Op{
		Load{Kind: particle.ViableCell(), Count: 5},
		Capture{},
		Gather{Anchor: geom.C(0, 0)}, // margin cell
	}}
	if err := outside.Check(cfg); err == nil {
		t.Error("anchor in margin should fail Check")
	}
}

func TestExecuteCanonicalAssay(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 7
	rep, err := Execute(sortingProgram(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trapped < 6 {
		t.Errorf("trapped only %d of 8", rep.Trapped)
	}
	if rep.Duration <= 0 {
		t.Error("assay must take time")
	}
	if rep.Steps <= 0 {
		t.Error("gather must take routing steps")
	}
	if rep.ScanSites == 0 {
		t.Error("scans must report sites")
	}
	if len(rep.Events) == 0 {
		t.Error("report should carry the event log")
	}
	// Sanity: scan accuracy is high at 16x averaging.
	if rep.ScanErrors > rep.ScanSites/10 {
		t.Errorf("scan errors %d/%d too high", rep.ScanErrors, rep.ScanSites)
	}
}

func TestExecuteRejectsInvalidProgram(t *testing.T) {
	if _, err := Execute(Program{}, testConfig()); err == nil {
		t.Error("invalid program must not execute")
	}
}

func TestEstimateDurationOrdersOfMagnitude(t *testing.T) {
	cfg := testConfig()
	pr := sortingProgram(8)
	est, err := EstimateDuration(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	rep, err := Execute(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate is deliberately worst-case for gathers; demand only
	// that it brackets reality within a factor of 30 either way.
	if est < rep.Duration/30 || est > rep.Duration*30 {
		t.Errorf("estimate %g s vs actual %g s: off by more than 30x", est, rep.Duration)
	}
}

func TestDescribeStrings(t *testing.T) {
	ops := []Op{
		Load{Kind: particle.ViableCell(), Count: 3},
		Settle{},
		Settle{Duration: 5},
		Capture{},
		Gather{Anchor: geom.C(1, 1)},
		Scan{Averaging: 4},
		ReleaseAll{},
	}
	for _, op := range ops {
		if op.Describe() == "" {
			t.Errorf("%T has empty description", op)
		}
	}
	if !strings.Contains((Settle{}).Describe(), "auto") {
		t.Error("auto settle should say so")
	}
}

func TestGatherGoalsPacking(t *testing.T) {
	interior := geom.GridRect(40, 40).Inset(1)
	goals := gatherGoals(interior, geom.C(1, 1), 9)
	if len(goals) != 9 {
		t.Fatalf("got %d goals", len(goals))
	}
	// Pairwise separation.
	for i := 0; i < len(goals); i++ {
		for j := i + 1; j < len(goals); j++ {
			if goals[i].Chebyshev(goals[j]) < 2 {
				t.Fatalf("goals too close: %v %v", goals[i], goals[j])
			}
		}
	}
	if goals[0] != geom.C(1, 1) {
		t.Errorf("first goal should be the anchor, got %v", goals[0])
	}
	// Unfittable request returns nil.
	if g := gatherGoals(interior, geom.C(38, 38), 10); g != nil {
		t.Error("packed block past the edge should fail")
	}
}
