package route

import (
	"sort"

	"biochip/internal/geom"
	"biochip/internal/rng"
)

// Order selects the priority ordering of the prioritized planner.
type Order int

// Priority orderings (ablation knobs for experiment E7).
const (
	// LongestFirst plans the agent with the largest Manhattan distance
	// first (default; long routes get the uncongested table).
	LongestFirst Order = iota
	// ShortestFirst is the inverse, usually worse.
	ShortestFirst
	// DeclaredOrder uses the order agents appear in the problem.
	DeclaredOrder
	// RandomOrder shuffles with the planner's seed.
	RandomOrder
)

// Prioritized is the cooperative space-time A* planner.
type Prioritized struct {
	// Order selects priority ordering; default LongestFirst.
	Order Order
	// Seed drives RandomOrder shuffling.
	Seed uint64
}

// Name implements Planner.
func (pr Prioritized) Name() string {
	switch pr.Order {
	case ShortestFirst:
		return "prioritized/shortest-first"
	case DeclaredOrder:
		return "prioritized/declared"
	case RandomOrder:
		return "prioritized/random"
	default:
		return "prioritized/longest-first"
	}
}

// Plan implements Planner.
func (pr Prioritized) Plan(p Problem) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	horizon := p.EffectiveHorizon()
	order := make([]Agent, len(p.Agents))
	copy(order, p.Agents)
	switch pr.Order {
	case LongestFirst:
		sort.SliceStable(order, func(i, j int) bool {
			return order[i].Start.Manhattan(order[i].Goal) > order[j].Start.Manhattan(order[j].Goal)
		})
	case ShortestFirst:
		sort.SliceStable(order, func(i, j int) bool {
			return order[i].Start.Manhattan(order[i].Goal) < order[j].Start.Manhattan(order[j].Goal)
		})
	case RandomOrder:
		src := rng.New(pr.Seed)
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}

	// Cooperative A*: each agent plans against the committed paths of
	// higher-priority agents only. Initial waits are explicit path
	// steps, so every pair of committed paths is separation-checked over
	// its full timeline. Unplanned agents' start cells are *soft*
	// obstacles (cost penalty): hard-blocking them deadlocks dense
	// instances, while ignoring them invites paths that chase waiting
	// agents off the array. If some agent still fails, the whole plan is
	// restarted with the failed agents promoted to highest priority.
	const maxAttempts = 4
	var paths map[int]geom.Path
	solved := false
	s := takeSearcher(p.Interior())
	defer s.release()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		s.res.clear()
		paths = make(map[int]geom.Path, len(order))
		for _, a := range order {
			s.addSoft(a.Start, 1)
		}
		var failed []Agent
		for _, a := range order {
			s.addSoft(a.Start, -1)
			path := s.astar(a, horizon)
			if path == nil {
				failed = append(failed, a)
				// Re-block its start for the rest of this attempt.
				s.addSoft(a.Start, 1)
				continue
			}
			paths[a.ID] = path
			s.res.commit(path)
		}
		for _, a := range failed {
			s.addSoft(a.Start, -1)
		}
		if len(failed) == 0 {
			solved = true
			break
		}
		// Promote failures to the front, keeping relative order of the
		// rest, and replan from scratch.
		isFailed := make(map[int]bool, len(failed))
		for _, a := range failed {
			isFailed[a.ID] = true
		}
		reordered := make([]Agent, 0, len(order))
		reordered = append(reordered, failed...)
		for _, a := range order {
			if !isFailed[a.ID] {
				reordered = append(reordered, a)
			}
		}
		order = reordered
	}
	if !solved {
		// Final attempt's failures park at start; the plan is reported
		// unsolved and must not be executed.
		for _, a := range order {
			if _, ok := paths[a.ID]; !ok {
				paths[a.ID] = geom.Path{a.Start}
			}
		}
	}
	pl := &Plan{Paths: paths, Solved: solved, Planner: pr.Name()}
	if solved {
		for _, a := range p.Agents {
			if got := paths[a.ID]; got[len(got)-1] != a.Goal {
				pl.Solved = false
			}
		}
	}
	finalize(pl, p)
	return pl, nil
}
