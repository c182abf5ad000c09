package experiments

// Shape assertions: the experiments (`biochipbench list`) claim
// specific relationships (who wins, which scaling law holds). These
// tests re-derive them from the underlying models at every `go test`,
// so the claims table cannot rot.

import (
	"math"
	"testing"

	"biochip/internal/designflow"
	"biochip/internal/electrode"
	"biochip/internal/fab"
	"biochip/internal/route"
	"biochip/internal/sensor"
	"biochip/internal/tech"
	"biochip/internal/units"
)

func TestShapeE1MoreFidelityFewerSpins(t *testing.T) {
	proc := fab.CMOSRespin()
	spinsAt := func(phi float64) float64 {
		p := designflow.ElectronicProject()
		p.SimVisibility = phi
		res, err := designflow.MonteCarlo(designflow.FlowSimulateFirst, p, proc, 300, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fabs.Mean()
	}
	lo, hi := spinsAt(0.80), spinsAt(0.99)
	if hi >= lo {
		t.Errorf("E1 shape broken: spins %g at φ=0.99 not below %g at φ=0.80", hi, lo)
	}
	if hi > 1.3 {
		t.Errorf("E1 shape broken: near-perfect models should approach 1 spin, got %g", hi)
	}
}

func TestShapeE2BuildAndTestWinsFluidicRegime(t *testing.T) {
	p := designflow.FluidicProject()
	proc := fab.DryFilmResist()
	bt, err := designflow.MonteCarlo(designflow.FlowBuildAndTest, p, proc, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := designflow.MonteCarlo(designflow.FlowSimulateFirst, p, proc, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(bt.Days.Median() < sf.Days.Median()) {
		t.Error("E2 shape broken: build-and-test should win the fluidic regime")
	}
	if !(bt.ProbWithinDays(14) > sf.ProbWithinDays(14)+0.3) {
		t.Error("E2 shape broken: two-week delivery probability gap vanished")
	}
}

func TestShapeE4OlderNodeWins(t *testing.T) {
	best, err := tech.Select(tech.DefaultRequirements())
	if err != nil {
		t.Fatal(err)
	}
	if best.Node.VddIO != 5.0 {
		t.Errorf("E4 shape broken: winner %s is not a 5 V node", best.Node.Name)
	}
	if best.Node.Year >= 2000 {
		t.Errorf("E4 shape broken: winner %s too new", best.Node.Name)
	}
}

func TestShapeE5SlackFactors(t *testing.T) {
	arr := electrode.DefaultConfig()
	transit := arr.Pitch / (100 * units.Micron)
	if slack := transit / arr.FrameProgramTime(); slack < 100 {
		t.Errorf("E5 shape broken: reprogram slack %g < 100", slack)
	}
	sens := sensor.DefaultCapacitive()
	scan, err := sens.ArrayScanTime(arr.Cols, arr.Rows, 1, arr.Cols)
	if err != nil {
		t.Fatal(err)
	}
	if slack := transit / scan; slack < 100 {
		t.Errorf("E5 shape broken: scan slack %g < 100", slack)
	}
}

func TestShapeE5AveragingSqrtN(t *testing.T) {
	c := sensor.DefaultCapacitive()
	gain := c.NoiseRMS(1) / c.NoiseRMS(256)
	if math.Abs(gain-16) > 1e-9 {
		t.Errorf("E5 shape broken: 256x averaging gain %g != 16", gain)
	}
}

func TestShapeE6DryFilmCheapestFastest(t *testing.T) {
	dfr := fab.DryFilmResist()
	for _, p := range fab.Catalog() {
		if p.Name == dfr.Name {
			continue
		}
		if p.TurnaroundDays <= dfr.TurnaroundDays {
			t.Errorf("E6 shape broken: %s turns around as fast as dry-film", p.Name)
		}
		if p.MaskCost <= dfr.MaskCost {
			t.Errorf("E6 shape broken: %s masks as cheap as dry-film", p.Name)
		}
	}
}

func TestShapeE7PrioritizedOutlastsGreedy(t *testing.T) {
	// At a density where greedy livelocks, prioritized must still solve.
	prob, err := route.RandomProblem(64, 64, 48, 77)
	if err != nil {
		t.Fatal(err)
	}
	g, err := route.Greedy{}.Plan(prob)
	if err != nil {
		t.Fatal(err)
	}
	p, err := (route.Prioritized{}).Plan(prob)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Solved {
		t.Fatal("E7 shape broken: prioritized failed a 48-agent instance")
	}
	if g.Solved && g.Makespan < p.Makespan {
		t.Error("E7 shape broken: greedy beat prioritized under congestion")
	}
}

func TestShapeE10ForceSquareLaw(t *testing.T) {
	// Verified through the tech evaluation (exact) — the cage-model
	// version is covered in internal/dep with solver tolerance.
	req := tech.DefaultRequirements()
	a, _ := tech.ByName("0.5um")  // 5 V
	b, _ := tech.ByName("0.25um") // 3.3 V
	ra := tech.Evaluate(a, req).RelDEPForce
	rb := tech.Evaluate(b, req).RelDEPForce
	want := (5.0 * 5.0) / (3.3 * 3.3)
	if math.Abs(ra/rb-want) > 1e-9 {
		t.Errorf("E10/E4 shape broken: V² law ratio %g != %g", ra/rb, want)
	}
}
