package route

import (
	"sort"

	"biochip/internal/cage"
	"biochip/internal/geom"
	"biochip/internal/parallel"
)

// Partitioned is a meta-planner that mirrors the platform's own
// parallelism: a routing instance usually decomposes into clusters of
// cages that can never interact — their start/goal envelopes, padded by
// cage.MinSeparation, are too far apart — and each cluster plans
// independently, confined to its own territory, fanned out across the
// internal/parallel pool.
//
// Determinism contract (same as the simulation engine's): the partition
// is a pure function of the problem, clusters share no search state
// while planning (each takes a searcher of its own from the package's
// scratch, which hands out only reset ones), and sub-plans merge in a
// fixed order — so the output is bit-identical at any Parallelism for
// a fixed problem. The merged plan is re-validated with CheckPlan; if
// any cluster fails (confinement can cost completeness on contrived
// geometry) or validation rejects the merge, the whole problem is
// replanned serially with the inner planner, which keeps Partitioned
// exactly as complete as its inner planner.
// Instances that collapse to a single cluster skip the machinery
// entirely and delegate to the inner planner unconfined.
type Partitioned struct {
	// Inner plans each cluster; nil selects Prioritized{}.
	Inner Planner
	// Parallelism caps the worker goroutines planning clusters
	// (0 = GOMAXPROCS, 1 = strictly serial). Any value produces a
	// bit-identical plan.
	Parallelism int
}

// Name implements Planner.
func (pa Partitioned) Name() string {
	if pa.Inner == nil {
		return "partitioned"
	}
	return "partitioned(" + pa.Inner.Name() + ")"
}

func (pa Partitioned) inner() Planner {
	if pa.Inner == nil {
		return Prioritized{}
	}
	return pa.Inner
}

// Cluster is one independent sub-instance of a partitioned problem.
type Cluster struct {
	// Agents are the members, sorted by ID.
	Agents []Agent
	// Region is the cluster's planning territory. Regions of distinct
	// clusters are ≥ cage.MinSeparation apart (Chebyshev), so plans
	// confined to their regions can never violate separation across
	// clusters.
	Region geom.Rect
}

// clusterSlack is the manoeuvring room added around a cluster's
// start/goal envelopes: enough for agents to detour around each other
// (MinSeparation of lateral clearance plus one spare lane). More slack
// merges more clusters; less starves multi-agent clusters of detour
// space and triggers the serial fallback.
const clusterSlack = cage.MinSeparation + 1

// PartitionProblem splits a problem into interaction clusters. Two
// agents land in the same cluster when their padded envelopes — the
// bounding rectangles of start and goal, inflated by clusterSlack — come
// within cage.MinSeparation of each other; clusters then keep merging
// until every pair of cluster regions is ≥ MinSeparation apart. The
// result is deterministic: clusters are ordered by their smallest agent
// ID and each cluster's agents by ID.
func PartitionProblem(p Problem) []Cluster {
	interior := p.Interior()
	n := len(p.Agents)
	if n == 0 {
		return nil
	}
	envs := make([]geom.Rect, n)
	for i, a := range p.Agents {
		env := geom.NewRect(a.Start, a.Goal)
		// NewRect is half-open; include the upper corner cell, then pad.
		env.Max = env.Max.Add(geom.C(1, 1))
		envs[i] = expandRect(env, clusterSlack).Intersect(interior)
	}
	// Union-find over agents whose padded envelopes interact.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(i, j int) { parent[find(j)] = find(i) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rectsInteract(envs[i], envs[j]) {
				union(i, j)
			}
		}
	}
	byRoot := make(map[int]*Cluster)
	for i, a := range p.Agents {
		r := find(i)
		cl := byRoot[r]
		if cl == nil {
			cl = &Cluster{Region: envs[i]}
			byRoot[r] = cl
		}
		cl.Agents = append(cl.Agents, a)
		cl.Region = cl.Region.Union(envs[i])
	}
	// Collect clusters in sorted root order: the merge loop below
	// concatenates Agents in visit order, so cluster order must not
	// inherit map iteration order.
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	clusters := make([]*Cluster, 0, len(roots))
	for _, r := range roots {
		clusters = append(clusters, byRoot[r])
	}
	// Bounding boxes of merged envelopes can overlap even when no two
	// member envelopes do; merge regions until pairwise separation holds.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(clusters) && !changed; i++ {
			for j := i + 1; j < len(clusters); j++ {
				if rectsInteract(clusters[i].Region, clusters[j].Region) {
					clusters[i].Agents = append(clusters[i].Agents, clusters[j].Agents...)
					clusters[i].Region = clusters[i].Region.Union(clusters[j].Region)
					clusters = append(clusters[:j], clusters[j+1:]...)
					changed = true
					break
				}
			}
		}
	}
	out := make([]Cluster, len(clusters))
	for i, cl := range clusters {
		sort.Slice(cl.Agents, func(a, b int) bool { return cl.Agents[a].ID < cl.Agents[b].ID })
		out[i] = *cl
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Agents[0].ID < out[j].Agents[0].ID })
	return out
}

// expandRect grows r by n cells on every side.
func expandRect(r geom.Rect, n int) geom.Rect {
	return geom.Rect{
		Min: geom.C(r.Min.Col-n, r.Min.Row-n),
		Max: geom.C(r.Max.Col+n, r.Max.Row+n),
	}
}

// rectsInteract reports whether two regions come within MinSeparation of
// each other (Chebyshev distance between rects < MinSeparation), i.e.
// cages confined to them could still violate separation.
func rectsInteract(a, b geom.Rect) bool {
	return !expandRect(a, cage.MinSeparation-1).Intersect(b).Empty()
}

// Plan implements Planner.
func (pa Partitioned) Plan(p Problem) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inner := pa.inner()
	clusters := PartitionProblem(p)
	if len(clusters) <= 1 {
		// Nothing to partition (fully congested instance): delegate to
		// the inner planner on the unconfined problem — confinement
		// serves no purpose without a second cluster to protect, and a
		// confined attempt that fails would just pay for planning twice.
		pl, err := inner.Plan(p)
		if pl != nil {
			pl.Planner = pa.Name()
		}
		return pl, err
	}
	horizon := p.EffectiveHorizon()
	plans := make([]*Plan, len(clusters))
	errs := make([]error, len(clusters))
	parallel.For(pa.Parallelism, len(clusters), func(i int) {
		sub := Problem{
			Cols:    p.Cols,
			Rows:    p.Rows,
			Agents:  clusters[i].Agents,
			Horizon: horizon,
			Region:  clusters[i].Region,
		}
		plans[i], errs[i] = inner.Plan(sub)
	})
	merged := &Plan{Paths: make(map[int]geom.Path, len(p.Agents)), Solved: true, Planner: pa.Name()}
	ok := true
	for i := range clusters {
		if errs[i] != nil || plans[i] == nil || !plans[i].Solved {
			ok = false
			break
		}
		for id, path := range plans[i].Paths {
			merged.Paths[id] = path
		}
	}
	if ok {
		finalize(merged, p)
		// Validation pass: the region construction makes cross-cluster
		// conflicts impossible, but the merged plan is still re-checked
		// end to end before anything executes it.
		if err := CheckPlan(p, merged); err != nil {
			ok = false
		}
	}
	if !ok {
		// Fall back: replan the whole instance with the inner planner,
		// unconfined. Deterministic (the fallback decision depends only
		// on the problem), and exactly as complete as the inner planner.
		pl, err := inner.Plan(p)
		if pl != nil {
			pl.Planner = pa.Name()
		}
		return pl, err
	}
	return merged, nil
}
