// Package route plans concurrent DEP-cage motion: given start and goal
// positions for many trapped particles on the electrode grid, it
// produces per-timestep synchronous move sets that keep every pair of
// cages at least cage.MinSeparation apart at every instant.
//
// This is the CAD problem the platform creates — the paper's
// massively-parallel "shift the pattern, drag the cells" primitive needs
// a router the way wires need maze routing. The package is organised as
// a planner architecture:
//
//   - Greedy (greedy.go): every cage steps toward its goal when the step
//     is locally legal; cheap, but congestion causes long stalls and
//     livelock. The baseline.
//   - Prioritized (prioritized.go): space-time A* per cage against a
//     reservation table (cooperative path-finding). Complete for the
//     instances the greedy planner solves and much better under
//     congestion. The production planner.
//   - Windowed (windowed.go): WHCA*-style bounded-lookahead replanning,
//     what an on-line controller embedded with the chip would run.
//   - Partitioned (partitioned.go): a meta-planner that splits the
//     problem into non-interacting clusters and plans them concurrently,
//     with bit-identical output at any parallelism.
//
// Planners register by name (planner.go, PlannerByName) so higher layers
// — assay programs, the assayd service, the CLI — select them without
// compile-time coupling. reservation.go holds the dense space-time
// search core (reservation table and A* searcher) that Prioritized,
// Windowed and Refine share.
package route

import (
	"errors"
	"fmt"

	"biochip/internal/cage"
	"biochip/internal/geom"
)

// Agent is one cage (equivalently, one trapped particle) to route.
type Agent struct {
	ID    int
	Start geom.Cell
	Goal  geom.Cell
}

// Problem is a multi-cage routing instance on a cols×rows electrode grid.
type Problem struct {
	Cols, Rows int
	Agents     []Agent
	// Horizon bounds plan length in steps; 0 selects a default of
	// 4·(Cols+Rows) + 2·len(Agents). Windowed does not read it (see
	// Windowed.MaxRounds).
	Horizon int
	// Region optionally confines planning to a sub-rectangle of the
	// grid: agents must start, finish and travel inside it. The zero
	// rectangle means the whole grid. The Partitioned meta-planner uses
	// regions to keep concurrently planned clusters spatially disjoint.
	Region geom.Rect
}

// EffectiveHorizon returns the horizon actually used.
func (p Problem) EffectiveHorizon() int {
	if p.Horizon > 0 {
		return p.Horizon
	}
	return 4*(p.Cols+p.Rows) + 2*len(p.Agents)
}

// Interior returns the cells agents may occupy: the grid inset by the
// cage margin, further clipped to Region when one is set.
func (p Problem) Interior() geom.Rect {
	in := geom.GridRect(p.Cols, p.Rows).Inset(cage.Margin)
	if p.Region.Empty() {
		return in
	}
	return in.Intersect(p.Region)
}

// Validate checks the instance: bounds, margins, duplicate IDs, and
// start/goal separation legality.
func (p Problem) Validate() error {
	if p.Cols < 2*cage.Margin+1 || p.Rows < 2*cage.Margin+1 {
		return fmt.Errorf("route: grid %dx%d too small", p.Cols, p.Rows)
	}
	interior := p.Interior()
	seen := make(map[int]bool, len(p.Agents))
	for _, a := range p.Agents {
		if seen[a.ID] {
			return fmt.Errorf("route: duplicate agent id %d", a.ID)
		}
		seen[a.ID] = true
		if !interior.Contains(a.Start) {
			return fmt.Errorf("route: agent %d start %v outside interior", a.ID, a.Start)
		}
		if !interior.Contains(a.Goal) {
			return fmt.Errorf("route: agent %d goal %v outside interior", a.ID, a.Goal)
		}
	}
	for i := 0; i < len(p.Agents); i++ {
		for j := i + 1; j < len(p.Agents); j++ {
			a, b := p.Agents[i], p.Agents[j]
			if a.Start.Chebyshev(b.Start) < cage.MinSeparation {
				return fmt.Errorf("route: agents %d/%d start too close", a.ID, b.ID)
			}
			if a.Goal.Chebyshev(b.Goal) < cage.MinSeparation {
				return fmt.Errorf("route: agents %d/%d goals too close", a.ID, b.ID)
			}
		}
	}
	return nil
}

// Plan is a routed solution: one path per agent, all the same logical
// start time. Paths may have different lengths; agents park at their
// final cell afterwards.
type Plan struct {
	Paths map[int]geom.Path
	// Makespan is the number of steps until the last agent arrives.
	Makespan int
	// TotalMoves counts non-wait steps across agents.
	TotalMoves int
	// Solved is false when some agent never reached its goal within the
	// horizon; its path then ends wherever it stalled.
	Solved bool
	// Planner records the Name of the planner that produced the plan —
	// the provenance that chip.Simulator.ExecutePlan logs and the assay
	// service aggregates per-planner counters under.
	Planner string
}

// MovesAt returns the synchronous move set for step t (0-based), in the
// form cage.Layout.ApplyMoves accepts. Agents finished before t are
// omitted (they stay).
func (pl *Plan) MovesAt(t int) map[int]geom.Dir {
	moves := make(map[int]geom.Dir)
	for id, path := range pl.Paths {
		from := path.At(t)
		to := path.At(t + 1)
		if from == to {
			continue
		}
		d, ok := from.DirTo(to)
		if !ok {
			// Paths are validated on construction; this is defensive.
			continue
		}
		moves[id] = d
	}
	return moves
}

// CheckPlan verifies a plan against its problem: every agent has a path
// that begins at its start, takes only legal steps and stays inside the
// interior; in a solved plan every path ends at its goal; and every
// pair of agents keeps separation at every timestep. It does not check
// plan length against Problem.Horizon. It is the safety net every
// planner's output is run through in tests, and the validation pass the
// Partitioned meta-planner runs on merged sub-plans.
func CheckPlan(p Problem, pl *Plan) error {
	if pl == nil {
		return errors.New("route: nil plan")
	}
	interior := p.Interior()
	for _, a := range p.Agents {
		path, ok := pl.Paths[a.ID]
		if !ok {
			return fmt.Errorf("route: missing path for agent %d", a.ID)
		}
		if len(path) == 0 || path[0] != a.Start {
			return fmt.Errorf("route: agent %d path does not begin at start", a.ID)
		}
		if !path.Valid() {
			return fmt.Errorf("route: agent %d path has illegal step", a.ID)
		}
		if pl.Solved && path[len(path)-1] != a.Goal {
			return fmt.Errorf("route: agent %d does not reach goal in solved plan", a.ID)
		}
		for _, c := range path {
			if !interior.Contains(c) {
				return fmt.Errorf("route: agent %d leaves interior at %v", a.ID, c)
			}
		}
	}
	// Pairwise separation at every timestep (agents park at path end).
	// Pairs whose whole-path bounding boxes never come within
	// separation cannot conflict and are skipped — on partitioned
	// merges this prunes essentially every cross-cluster pair. Each
	// surviving pair is checked until both agents have parked (after
	// that neither moves again).
	boxes := make([]geom.Rect, len(p.Agents))
	durs := make([]int, len(p.Agents))
	for i, a := range p.Agents {
		boxes[i] = pathBounds(pl.Paths[a.ID])
		durs[i] = pl.Paths[a.ID].Duration()
	}
	for i := 0; i < len(p.Agents); i++ {
		pi := pl.Paths[p.Agents[i].ID]
		for j := i + 1; j < len(p.Agents); j++ {
			if !rectsInteract(boxes[i], boxes[j]) {
				continue
			}
			pj := pl.Paths[p.Agents[j].ID]
			last := durs[i]
			if durs[j] > last {
				last = durs[j]
			}
			for t := 0; t <= last; t++ {
				a, b := pi.At(t), pj.At(t)
				if a.Chebyshev(b) < cage.MinSeparation {
					return fmt.Errorf("route: separation violated at t=%d between %d and %d (%v/%v)",
						t, p.Agents[i].ID, p.Agents[j].ID, a, b)
				}
			}
		}
	}
	return nil
}

// pathBounds returns the half-open rectangle covering every cell of the
// path.
func pathBounds(path geom.Path) geom.Rect {
	if len(path) == 0 {
		return geom.Rect{}
	}
	r := geom.Rect{Min: path[0], Max: path[0].Add(geom.C(1, 1))}
	for _, c := range path[1:] {
		if c.Col < r.Min.Col {
			r.Min.Col = c.Col
		}
		if c.Row < r.Min.Row {
			r.Min.Row = c.Row
		}
		if c.Col+1 > r.Max.Col {
			r.Max.Col = c.Col + 1
		}
		if c.Row+1 > r.Max.Row {
			r.Max.Row = c.Row + 1
		}
	}
	return r
}

// finalize fills the plan metrics and trims trailing waits.
func finalize(pl *Plan, p Problem) {
	makespan := 0
	moves := 0
	for id, path := range pl.Paths {
		// Trim trailing waits.
		end := len(path)
		for end > 1 && path[end-1] == path[end-2] {
			end--
		}
		path = path[:end]
		pl.Paths[id] = path
		moves += path.Moves()
		if d := path.Duration(); d > makespan {
			makespan = d
		}
	}
	pl.Makespan = makespan
	pl.TotalMoves = moves
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
