package route

import (
	"sync"

	"biochip/internal/cage"
	"biochip/internal/geom"
)

// This file is the space-time search core every cooperative planner in
// this package runs on (Prioritized, Windowed, Refine): a reservation
// table of committed cage positions and one A* searcher over it, both
// dense arrays indexed by the planning interior (Problem.Interior) and
// by time step. A planner takes one searcher per Plan call from the
// package's scratch and reuses it across agents, restart attempts,
// windowed rounds and refine iterations; resetting undoes only what the
// previous use touched. The searcher goes back to the scratch reset
// completely, so the next plan starts from the state a new one has.
//
// Invariant: every query is for an interior cell. Starts and goals are
// validated against the interior, and the searcher drops successors
// outside it before asking the table anything. So a mark that falls
// outside the interior (a committed cage one cell from its edge marks
// its whole 3×3 neighbourhood) can never be read and is dropped when
// it is made.

// grid numbers the cells of the planning interior densely, row by row.
type grid struct {
	min   geom.Cell
	w, h  int
	words int // uint64 words in one bit layer over the interior
}

func newGrid(interior geom.Rect) grid {
	w, h := interior.Cols(), interior.Rows()
	return grid{min: interior.Min, w: w, h: h, words: (w*h + 63) / 64}
}

// index returns the dense index of c, or false when c lies outside the
// interior.
func (g grid) index(c geom.Cell) (int32, bool) {
	x, y := c.Col-g.min.Col, c.Row-g.min.Row
	if x < 0 || y < 0 || x >= g.w || y >= g.h {
		return 0, false
	}
	return int32(y*g.w + x), true
}

// near visits the index of every interior cell within Chebyshev
// distance MinSeparation−1 of c. The neighbourhood is symmetric, so
// these are also the cells from which a cage would come too close to
// one at c. c itself may lie outside the interior.
func (g grid) near(c geom.Cell, visit func(int32)) {
	const r = cage.MinSeparation - 1
	for dr := -r; dr <= r; dr++ {
		for dc := -r; dc <= r; dc++ {
			if i, ok := g.index(geom.C(c.Col+dc, c.Row+dr)); ok {
				visit(i)
			}
		}
	}
}

// layerChunkWords sizes the allocations of a layer stack: a chunk holds
// as many time steps as fit in this many words, at least one and at
// most 64. A small interior pays one allocation per 64 steps, and no
// interior leaves more than 32 KiB of a chunk unused.
const layerChunkWords = 4096

// layers is a stack of bit layers over the interior, one per time
// step. Layers are allocated on first touch, a chunk at a time, and
// kept for reuse; their owner clears the bits it set.
type layers struct {
	words  int
	shift  int // log2 of the layers in one chunk
	chunks [][]uint64
}

func newLayers(words int) layers {
	shift := 0
	for shift < 6 && words<<(shift+1) <= layerChunkWords {
		shift++
	}
	return layers{words: words, shift: shift}
}

// at returns layer t, or nil when no step that deep was ever touched.
func (ls *layers) at(t int) []uint64 {
	c := t >> ls.shift
	if c >= len(ls.chunks) {
		return nil
	}
	off := (t & (1<<ls.shift - 1)) * ls.words
	return ls.chunks[c][off : off+ls.words : off+ls.words]
}

// touch returns layer t, allocating it and every layer below it first.
func (ls *layers) touch(t int) []uint64 {
	for t>>ls.shift >= len(ls.chunks) {
		ls.chunks = append(ls.chunks, make([]uint64, ls.words<<ls.shift))
	}
	return ls.at(t)
}

// trim drops the stack's layers when they hold more than keepWords
// words; every bit in them must be clear.
func (ls *layers) trim() {
	if len(ls.chunks)*(ls.words<<ls.shift) > keepWords {
		ls.chunks = nil
	}
}

func has(l []uint64, i int32) bool { return l != nil && l[i>>6]&(1<<(i&63)) != 0 }
func set(l []uint64, i int32)      { l[i>>6] |= 1 << (i & 63) }
func unset(l []uint64, i int32)    { l[i>>6] &^= 1 << (i & 63) }

// reservations tracks committed agent positions over time. Committing a
// cage at c at time t sets, in layer t, every cell within separation of
// c, so a per-step conflict check is one bit test. Two per-cell times
// keep park-at-goal feasibility O(1): lastNear, the last time any
// reservation comes within separation of the cell, and parkedNear, the
// earliest time a parked agent blocks it for good. −1 means none.
type reservations struct {
	grid
	occ        layers
	lastNear   []int32
	parkedNear []int32
	// committed lists the paths marked since the last clear, which is
	// all clear has to undo. The table keeps a reference to each path,
	// so a committed path must not change until the next clear.
	committed []geom.Path
}

// commit reserves a full path, including the permanent park at its end.
func (r *reservations) commit(path geom.Path) {
	for t, c := range path {
		l := r.occ.touch(t)
		r.near(c, func(i int32) {
			set(l, i)
			if int32(t) > r.lastNear[i] {
				r.lastNear[i] = int32(t)
			}
		})
	}
	park := int32(len(path) - 1)
	r.near(path[park], func(i int32) {
		if pt := r.parkedNear[i]; pt < 0 || park < pt {
			r.parkedNear[i] = park
		}
	})
	r.committed = append(r.committed, path)
}

// clear empties the table by unmarking what the committed paths
// marked, and forgets the paths; the layers stay allocated.
func (r *reservations) clear() {
	for _, path := range r.committed {
		for t, c := range path {
			l := r.occ.at(t)
			r.near(c, func(i int32) {
				unset(l, i)
				r.lastNear[i] = -1
			})
		}
		r.near(path[len(path)-1], func(i int32) { r.parkedNear[i] = -1 })
	}
	clear(r.committed)
	r.committed = r.committed[:0]
}

// conflict reports whether a cage centre at interior cell i at time t
// violates separation against committed reservations.
func (r *reservations) conflict(i int32, t int) bool {
	if pt := r.parkedNear[i]; pt >= 0 && int32(t) >= pt {
		return true
	}
	return has(r.occ.at(t), i)
}

// pendingPenalty is the extra cost per step spent within separation of
// an unplanned agent's start cell. High enough that paths detour around
// waiting agents when a detour exists, low enough that crossing is still
// possible when geometry forces it.
const pendingPenalty = 8

// maxExpansionsPerAgent bounds one agent's A* search; exceeding it is
// treated as unroutable (and triggers the restart-with-promotion logic).
const maxExpansionsPerAgent = 400000

// node is one space-time search state in the searcher's arena.
type node struct {
	x, y, t int32 // interior-relative cell, time step
	parent  int32 // arena index of the predecessor; −1 at the start
}

// entry is one open-list item. g is the path cost (time steps plus
// soft penalties) and f = g + h. key orders by f ascending, then by g
// descending (deeper nodes first): f in the high 32 bits, ^g in the low.
type entry struct {
	key  uint64
	node int32
}

func entryKey(f, g int) uint64 { return uint64(f)<<32 | uint64(^uint32(g)) }

// searcher runs Silver's cooperative space-time A* (Silver,
// "Cooperative Pathfinding", AIIDE 2005) for one agent at a time
// against its reservation table. Its scratch (node arena, open list,
// closed layers, soft-obstacle counts) lives as long as the searcher,
// so a search allocates only when it goes deeper or wider than every
// search before it, plus the path it returns.
type searcher struct {
	res *reservations
	// soft counts, per interior cell, the soft obstacles within
	// separation of it: the cells of agents not yet planned.
	soft   []int32
	closed layers
	nodes  []node
	open   []entry
}

func newSearcher(interior geom.Rect) *searcher {
	s := &searcher{res: &reservations{}}
	s.retarget(newGrid(interior))
	return s
}

// retarget points a reset searcher at the interior g numbers. When the
// interior changes, the per-cell tables are refilled for it in the
// capacity they have, and both bit-layer stacks are rebuilt when a
// layer's width changes; a reset stack of the same width is all clear.
func (s *searcher) retarget(g grid) {
	if s.res.grid == g {
		return
	}
	n := g.w * g.h
	s.res.grid = g
	s.res.lastNear = fill(s.res.lastNear, n, -1)
	s.res.parkedNear = fill(s.res.parkedNear, n, -1)
	s.soft = fill(s.soft, n, 0)
	if g.words != s.closed.words {
		s.res.occ, s.closed = newLayers(g.words), newLayers(g.words)
	}
}

// fill returns tbl resized to n entries that all hold v.
func fill(tbl []int32, n int, v int32) []int32 {
	if cap(tbl) < n {
		tbl = make([]int32, n)
	}
	tbl = tbl[:n]
	for i := range tbl {
		tbl[i] = v
	}
	return tbl
}

// keepBytes bounds each scratch structure a kept searcher holds on to:
// its node arena, its open list (16-byte nodes and entries) and each
// bit-layer stack (8-byte words). One larger is dropped at reset, so
// an outsized plan costs its allocations, not memory kept for good. A
// 9–11-cage gather on a 32×32 die grows the arena to 6.6k–30k nodes; a
// 20-cage gather on the same die can reach 709,632 (11 MB).
const (
	keepBytes = 1 << 20
	keepNodes = keepBytes / 16
	keepWords = keepBytes / 8
)

// reset undoes everything the searcher's last plan left, so that the
// next plan starts from the state of a new searcher: the table unmarks
// and forgets the committed paths (the plan returned them, and a kept
// table must not hold them), and the closed bits of the last search
// are cleared. The soft counts are zero already: every planner removes
// each soft obstacle it adds. Then structures past keepBytes go.
func (s *searcher) reset() {
	s.res.clear()
	s.clearClosed()
	if cap(s.nodes) > keepNodes {
		s.nodes = nil
	}
	if cap(s.open) > keepNodes {
		s.open = nil
	}
	s.res.occ.trim()
	s.closed.trim()
}

// clearClosed clears the closed bits the last search set and empties
// the arena and the open list: only popped nodes set a closed bit, and
// every popped node is in the arena.
func (s *searcher) clearClosed() {
	w := int32(s.res.w)
	for _, n := range s.nodes {
		if l := s.closed.at(int(n.t)); l != nil {
			unset(l, n.y*w+n.x)
		}
	}
	s.nodes, s.open = s.nodes[:0], s.open[:0]
}

// scratch keeps the searchers planners have released, so the next plan
// reuses their node arenas, open lists, bit layers and per-cell tables
// instead of regrowing them from empty. A planner takes a searcher for
// the length of its Plan or Refine call (takeSearcher) and gives it
// back reset completely (release), so a plan never sees what an earlier
// one left and no output depends on which searcher it got. Concurrent
// callers (a daemon's shards, the clusters Partitioned plans at once)
// each take a searcher of their own, so the free list holds at most as
// many searchers as plans ever ran at once, each structure within
// keepBytes and each per-cell table sized for the largest interior it
// served.
//
// It is not a sync.Pool: the GC empties a pool, and a routed workload
// runs a GC every few jobs.
var scratch struct {
	mu   sync.Mutex
	free []*searcher
}

// takeSearcher returns a searcher over interior with nothing committed,
// closed or soft: a kept one re-targeted to interior, or a new one.
func takeSearcher(interior geom.Rect) *searcher {
	var s *searcher
	scratch.mu.Lock()
	if n := len(scratch.free); n > 0 {
		s, scratch.free = scratch.free[n-1], scratch.free[:n-1]
	}
	scratch.mu.Unlock()
	if s == nil {
		return newSearcher(interior)
	}
	s.retarget(newGrid(interior))
	return s
}

// release resets s and keeps it for the next plan.
func (s *searcher) release() {
	s.reset()
	scratch.mu.Lock()
	scratch.free = append(scratch.free, s)
	scratch.mu.Unlock()
}

// addSoft adds (delta = 1) or removes (delta = −1) a soft obstacle at c.
func (s *searcher) addSoft(c geom.Cell, delta int32) {
	s.res.near(c, func(i int32) { s.soft[i] += delta })
}

// astar plans agent a from time 0 against the table, up to horizon
// steps. It returns nil when no path reaches the goal within the
// horizon or the expansion budget.
func (s *searcher) astar(a Agent, horizon int) geom.Path {
	// Refine passes problems it has not validated: an endpoint outside
	// the interior has no path.
	si, ok1 := s.res.index(a.Start)
	gi, ok2 := s.res.index(a.Goal)
	if !ok1 || !ok2 || s.res.conflict(si, 0) {
		return nil
	}
	if s.res.parkedNear[gi] >= 0 {
		// An earlier agent parks within separation of this goal: no
		// arrival time can ever be conflict-free.
		return nil
	}
	// Earliest time parking at the goal becomes conflict-free: one past
	// the last time any committed path passes near it.
	tFree := int(s.res.lastNear[gi]) + 1
	if tFree > horizon {
		return nil
	}
	return s.search(a.Start, a.Goal, tFree, horizon, false)
}

// window plans exactly win steps from `from` toward goal: every
// depth-win node is a terminal whose merit is its remaining distance,
// and resting at the goal is free. It returns a path of length win+1,
// or nil when every branch runs into a conflict before depth win or
// the expansion budget runs out.
func (s *searcher) window(from, goal geom.Cell, win int) geom.Path {
	return s.search(from, goal, 0, win, true)
}

// search is the A* loop behind astar and window. Full searches return
// the first popped node at the goal no earlier than tFree, expanding
// nothing at the horizon limit; windowed searches return the first
// popped node at depth limit. The heuristic is the remaining Manhattan
// distance, but never less than the wait until tFree, which collapses
// the "loiter until the goal is free" plateau that otherwise explodes
// the search.
//
// Among open entries with equal (f, g), heap position decides which of
// several equally good paths comes back, so push and pop replicate
// container/heap's up and down step for step: plans depend on it.
func (s *searcher) search(from, goal geom.Cell, tFree, limit int, windowed bool) geom.Path {
	r := s.res
	s.clearClosed()

	w, h := int32(r.w), int32(r.h)
	gx, gy := int32(goal.Col-r.min.Col), int32(goal.Row-r.min.Row)
	heur := func(x, y int32, t int) int {
		d := abs(int(x-gx)) + abs(int(y-gy))
		if wait := tFree - t; wait > d {
			return wait
		}
		return d
	}
	sx, sy := int32(from.Col-r.min.Col), int32(from.Row-r.min.Row)
	s.nodes = append(s.nodes, node{x: sx, y: sy, t: 0, parent: -1})
	s.push(entry{key: entryKey(heur(sx, sy, 0), 0), node: 0})
	expansions := 0
	for len(s.open) > 0 {
		e := s.pop()
		n := s.nodes[e.node]
		t := int(n.t)
		closed, i := s.closed.touch(t), n.y*w+n.x
		if has(closed, i) {
			continue
		}
		set(closed, i)
		if expansions++; expansions > maxExpansionsPerAgent {
			return nil
		}
		atGoal := n.x == gx && n.y == gy
		if windowed {
			if t == limit {
				return s.path(e.node)
			}
		} else {
			if atGoal && t >= tFree {
				return s.path(e.node)
			}
			if t >= limit {
				continue
			}
		}
		g := int(^uint32(e.key))
		nextClosed := s.closed.at(t + 1)
		// Successors in geom.Dir order: Stay, North, South, East, West.
		for _, d := range [5][2]int32{{0, 0}, {0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
			nx, ny := n.x+d[0], n.y+d[1]
			if nx < 0 || ny < 0 || nx >= w || ny >= h {
				continue
			}
			ni := ny*w + nx
			if has(nextClosed, ni) || r.conflict(ni, t+1) {
				continue
			}
			step := 1
			if windowed && atGoal && nx == gx && ny == gy {
				step = 0 // resting at the goal is free
			}
			cg := g + step
			if s.soft[ni] > 0 {
				cg += pendingPenalty
			}
			s.nodes = append(s.nodes, node{x: nx, y: ny, t: n.t + 1, parent: e.node})
			s.push(entry{key: entryKey(cg+heur(nx, ny, t+1), cg), node: int32(len(s.nodes) - 1)})
		}
	}
	return nil
}

// push adds e to the open list: container/heap's Push (append, then up).
func (s *searcher) push(e entry) {
	s.open = append(s.open, e)
	h := s.open
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if e.key >= h[i].key {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = e
}

// pop removes the least entry: container/heap's Pop (swap the root
// with the last entry, then down over the rest).
func (s *searcher) pop() entry {
	h := s.open
	n := len(h) - 1
	top, x := h[0], h[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].key < h[j].key {
			j = j2
		}
		if h[j].key >= x.key {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	s.open = h[:n]
	return top
}

// path rebuilds the path ending at arena node n; a node at time t has
// t predecessors.
func (s *searcher) path(n int32) geom.Path {
	out := make(geom.Path, s.nodes[n].t+1)
	for ; n >= 0; n = s.nodes[n].parent {
		nd := s.nodes[n]
		out[nd.t] = geom.C(s.res.min.Col+int(nd.x), s.res.min.Row+int(nd.y))
	}
	return out
}
