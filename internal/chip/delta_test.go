package chip

import (
	"testing"

	"biochip/internal/particle"
	"biochip/internal/route"
	"biochip/internal/units"
)

func TestDeltaProgrammingSameStateLessBusTime(t *testing.T) {
	run := func(delta bool) (*Simulator, error) {
		cfg := smallConfig()
		cfg.Seed = 77
		cfg.DeltaProgramming = delta
		s, err := New(cfg)
		if err != nil {
			return nil, err
		}
		kind := particle.ViableCell()
		if _, err := s.Load(&kind, 12); err != nil {
			return nil, err
		}
		s.Settle(s.Chamber().Height / (5 * units.Micron))
		if _, _, err := s.CaptureAll(); err != nil {
			return nil, err
		}
		return s, nil
	}
	full, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	// Same trapped configuration (same seed, same physics).
	if full.Layout().Len() != dl.Layout().Len() {
		t.Fatalf("delta changed capture outcome: %d vs %d cages",
			full.Layout().Len(), dl.Layout().Len())
	}
	fullIDs := full.Layout().IDs()
	for _, id := range fullIDs {
		a, _ := full.Layout().Position(id)
		b, ok := dl.Layout().Position(id)
		if !ok || a != b {
			t.Fatalf("cage %d position differs: %v vs %v", id, a, b)
		}
	}
	// Delta programming spends less (or equal) array bus time.
	if dl.ArrayStats().ElapsedTime > full.ArrayStats().ElapsedTime {
		t.Errorf("delta bus time %g should not exceed full %g",
			dl.ArrayStats().ElapsedTime, full.ArrayStats().ElapsedTime)
	}
	// Same actuation energy (same toggles).
	if dl.ArrayStats().ActuationEnergy != full.ArrayStats().ActuationEnergy {
		t.Error("energy must not depend on programming mode")
	}
}

// TestArrayFrameTracksLayout checks the invariant sparse programming
// rests on: after every program — capture, a routed plan, a probe that
// ejects cells, each release — the array's live frame equals the
// layout's compiled frame, in both programming modes and again after a
// Reset.
func TestArrayFrameTracksLayout(t *testing.T) {
	for _, delta := range []bool{false, true} {
		cfg := smallConfig()
		cfg.Seed = 11
		cfg.DeltaProgramming = delta
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			t.Helper()
			if d := s.array.Frame().Diff(s.layout.Compile()); d != 0 {
				t.Fatalf("delta=%t, after %s: frame differs from Compile() in %d electrodes", delta, stage, d)
			}
		}
		for round := 0; round < 2; round++ {
			viable, dead := particle.ViableCell(), particle.NonViableCell()
			if _, err := s.Load(&viable, 30); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Load(&dead, 10); err != nil {
				t.Fatal(err)
			}
			s.Settle(s.Chamber().Height / (5 * units.Micron))
			if _, _, err := s.CaptureAll(); err != nil {
				t.Fatal(err)
			}
			check("capture")
			prob := route.Problem{Cols: cfg.Array.Cols, Rows: cfg.Array.Rows}
			for _, id := range s.Layout().IDs() {
				c, _ := s.Layout().Position(id)
				goal := c
				if goal.Col+2 < cfg.Array.Cols-1 {
					goal.Col += 2
				}
				prob.Agents = append(prob.Agents, route.Agent{ID: id, Start: c, Goal: goal})
			}
			plan, err := (route.Prioritized{}).Plan(prob)
			if err != nil || !plan.Solved {
				t.Fatalf("plan: solved=%t err=%v", plan != nil && plan.Solved, err)
			}
			if err := s.ExecutePlan(plan); err != nil {
				t.Fatal(err)
			}
			check("plan")
			res, err := s.ProbeDEPResponse(10 * units.Kilohertz)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Lost) == 0 {
				t.Fatal("probe should eject the non-viable cells")
			}
			check("probe")
			for _, id := range s.Layout().IDs() {
				if err := s.Release(id); err != nil {
					t.Fatal(err)
				}
				check("release")
			}
			if err := s.Reset(cfg.Seed + 1); err != nil {
				t.Fatal(err)
			}
			check("reset")
		}
	}
}
