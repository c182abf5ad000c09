package route

import (
	"fmt"

	"biochip/internal/geom"
)

// Windowed is a WHCA*-style planner: agents repeatedly plan cooperative
// W-step path prefixes toward their goals, execute them, and replan.
// Latency and memory per round are bounded by the window, which is what
// an on-line controller embedded with the chip would run; the price is
// lost completeness on hard instances (it can oscillate where the
// full-horizon planner commits).
type Windowed struct {
	// Window is the planning depth per round; 0 selects 16.
	Window int
	// MaxRounds bounds total rounds; 0 selects four times the rounds
	// the default horizon 4·(Cols+Rows) + 2·len(Agents) spans, and at
	// least 8. Problem.Horizon is not consulted, so a windowed plan can
	// run past an explicit horizon.
	MaxRounds int
}

// RoundsExhaustedError is returned by Windowed.Plan alongside the
// partial plan when the round budget runs out — either MaxRounds rounds
// executed without every agent arriving, or the oscillation bound
// tripped (several consecutive rounds with no net progress). It is a
// typed error so callers can distinguish "incomplete planner gave up"
// from "instance rejected".
type RoundsExhaustedError struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Stalled is true when the oscillation bound (no net progress over
	// consecutive rounds) tripped before MaxRounds did.
	Stalled bool
	// Remaining is the total Manhattan distance still to cover.
	Remaining int
}

// Error implements error.
func (e *RoundsExhaustedError) Error() string {
	why := "round budget exhausted"
	if e.Stalled {
		why = "oscillation bound tripped"
	}
	return fmt.Sprintf("route: windowed planner %s after %d rounds (%d cells of distance remaining)",
		why, e.Rounds, e.Remaining)
}

// Name implements Planner.
func (w Windowed) Name() string { return "windowed" }

func (w Windowed) window() int {
	if w.Window > 0 {
		return w.Window
	}
	return 16
}

// Plan implements Planner. When the round budget runs out before every
// agent arrives, it returns the partial plan (Solved=false) together
// with a *RoundsExhaustedError.
func (w Windowed) Plan(p Problem) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	win := w.window()
	maxRounds := w.MaxRounds
	if maxRounds <= 0 {
		maxRounds = (4*(p.Cols+p.Rows) + 2*len(p.Agents)) / win * 4
		if maxRounds < 8 {
			maxRounds = 8
		}
	}
	s := takeSearcher(p.Interior())
	defer s.release()

	cur := make(map[int]geom.Cell, len(p.Agents))
	goals := make(map[int]geom.Cell, len(p.Agents))
	paths := make(map[int]geom.Path, len(p.Agents))
	for _, a := range p.Agents {
		cur[a.ID] = a.Start
		goals[a.ID] = a.Goal
		paths[a.ID] = geom.Path{a.Start}
	}
	totalDist := func() int {
		d := 0
		for id, c := range cur {
			d += c.Manhattan(goals[id])
		}
		return d
	}
	stalls := 0
	stalled := false
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		if totalDist() == 0 {
			break
		}
		// Priority: farthest-from-goal first, re-evaluated per round.
		order := make([]Agent, len(p.Agents))
		copy(order, p.Agents)
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				di := cur[order[i].ID].Manhattan(goals[order[i].ID])
				dj := cur[order[j].ID].Manhattan(goals[order[j].ID])
				if dj > di {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		s.res.clear()
		for _, a := range order {
			s.addSoft(cur[a.ID], 1)
		}
		before := totalDist()
		for _, a := range order {
			from := cur[a.ID]
			s.addSoft(from, -1)
			wp := s.window(from, goals[a.ID], win)
			if wp == nil {
				// Blocked completely: sit still for the window.
				wp = make(geom.Path, win+1)
				for i := range wp {
					wp[i] = from
				}
			}
			s.res.commit(wp)
			paths[a.ID] = append(paths[a.ID], wp[1:]...)
			cur[a.ID] = wp[len(wp)-1]
		}
		if totalDist() >= before {
			stalls++
			if stalls >= 3 {
				stalled = true
				rounds++ // this round ran; the loop post-statement won't count it
				break
			}
		} else {
			stalls = 0
		}
	}
	pl := &Plan{Paths: paths, Solved: totalDist() == 0, Planner: w.Name()}
	finalize(pl, p)
	if !pl.Solved {
		return pl, &RoundsExhaustedError{Rounds: rounds, Stalled: stalled, Remaining: totalDist()}
	}
	return pl, nil
}
