package route

import (
	"biochip/internal/cage"
	"biochip/internal/geom"
)

// Compact post-optimizes a solved plan by deleting wait steps whose
// removal keeps the plan conflict-free: prioritized planning inserts
// conservative waits (an agent defers to paths committed earlier even
// when the earlier agent ends up elsewhere), and once all paths are
// known many of those waits can be squeezed out. Endpoints are
// unchanged; makespan and total duration never increase.
//
// Returns the compacted plan and the number of wait steps removed. The
// input plan is not modified. Unsolved plans are returned unchanged
// (compaction of a partial plan is meaningless).
func Compact(p Problem, pl *Plan) (*Plan, int) {
	if pl == nil || !pl.Solved {
		return pl, 0
	}
	out := &Plan{Solved: true, Planner: pl.Planner, Paths: make(map[int]geom.Path, len(pl.Paths))}
	for id, path := range pl.Paths {
		out.Paths[id] = append(geom.Path(nil), path...)
	}
	removed := 0
	for changed := true; changed; {
		changed = false
		for _, a := range p.Agents {
			path := out.Paths[a.ID]
			for i := 1; i < len(path); i++ {
				if path[i] != path[i-1] {
					continue
				}
				cand := make(geom.Path, 0, len(path)-1)
				cand = append(cand, path[:i]...)
				cand = append(cand, path[i+1:]...)
				if compatibleFrom(p, out, a.ID, cand, i-1) {
					path = cand
					out.Paths[a.ID] = cand
					removed++
					changed = true
					i--
				}
			}
		}
	}
	finalize(out, p)
	return out, removed
}

// Refine post-optimizes a solved plan by iterated best response: each
// agent's path is re-planned with full space-time A* against all other
// paths held fixed, and replaced when the new path arrives earlier (or
// as early with fewer moves). Prioritized planning never lets an
// early-planned agent react to later ones; refinement gives every agent
// that chance. The loop repeats for up to maxRounds or until a fixed
// point. Returns the refined plan and the number of paths improved.
func Refine(p Problem, pl *Plan, maxRounds int) (*Plan, int) {
	if pl == nil || !pl.Solved {
		return pl, 0
	}
	if maxRounds <= 0 {
		maxRounds = 3
	}
	out := &Plan{Solved: true, Planner: pl.Planner, Paths: make(map[int]geom.Path, len(pl.Paths))}
	for id, path := range pl.Paths {
		out.Paths[id] = append(geom.Path(nil), path...)
	}
	s := takeSearcher(p.Interior())
	defer s.release()
	horizon := p.EffectiveHorizon()
	improved := 0
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, a := range p.Agents {
			// Reservations: everyone else's current path.
			s.res.clear()
			for _, b := range p.Agents {
				if b.ID != a.ID {
					s.res.commit(out.Paths[b.ID])
				}
			}
			cand := s.astar(a, horizon)
			if cand == nil {
				continue
			}
			cur := out.Paths[a.ID]
			curD, candD := cur.Duration(), cand.Duration()
			if candD < curD || (candD == curD && cand.Moves() < cur.Moves()) {
				out.Paths[a.ID] = cand
				improved++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	finalize(out, p)
	return out, improved
}

// compatibleFrom checks the candidate path of agent id against every
// other path for all timesteps ≥ from (earlier steps are unchanged by a
// wait removal at index ≥ from+1).
func compatibleFrom(p Problem, pl *Plan, id int, cand geom.Path, from int) bool {
	// Horizon: the longest involved duration.
	horizon := cand.Duration()
	for _, a := range p.Agents {
		if a.ID == id {
			continue
		}
		if d := pl.Paths[a.ID].Duration(); d > horizon {
			horizon = d
		}
	}
	for t := from; t <= horizon; t++ {
		c := cand.At(t)
		for _, a := range p.Agents {
			if a.ID == id {
				continue
			}
			if c.Chebyshev(pl.Paths[a.ID].At(t)) < cage.MinSeparation {
				return false
			}
		}
	}
	return true
}
