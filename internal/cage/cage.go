// Package cage provides the DEP-cage abstraction layer between the raw
// electrode array and the manipulation planner: cages live at electrode
// grid positions, a legal layout keeps them separated so their 3×3
// patterns do not merge, and a layout compiles to an electrode.Frame.
//
// This is the instruction-set level of the platform: the paper's
// "changing the pattern of voltages ... the DEP cages can be shifted,
// thus dragging along the trapped particles" becomes a sequence of
// layouts, each one frame programmed into the array.
//
// Cost model: the compiled frame is PhaseA everywhere except PhaseB at
// each cage centre, so a layout change alters only the centres it
// touches. A Layout records those cells, and TakeChanges turns them into
// the sparse electrode writes that bring the last programmed frame up to
// date. Reprogramming after a change therefore costs the host
// O(changed electrodes), not O(array); Compile renders the whole frame
// and is the reference the sparse path is tested against. Simulated
// time is the array's business and still follows its full-frame or
// dirty-row model.
package cage

import (
	"fmt"
	"sort"

	"biochip/internal/electrode"
	"biochip/internal/geom"
)

// MinSeparation is the minimum Chebyshev distance between two cage
// centres for their 3×3 patterns to remain independent closed cages.
// At distance 2 the patterns share boundary in-phase electrodes but keep
// distinct minima; below 2 they merge into one trap.
const MinSeparation = 2

// Margin is the electrode border a cage centre must keep from the array
// edge so its full 3×3 pattern fits on silicon.
const Margin = 1

// Layout is a set of cages on an electrode grid, keyed by an opaque cage
// ID chosen by the caller (e.g. the trapped particle's ID).
type Layout struct {
	cols, rows int
	pos        map[int]geom.Cell
	occ        map[geom.Cell]int
	// changed lists the centre cells whose occupancy changed since the
	// last TakeChanges, possibly with repeats.
	changed []geom.Cell
}

// NewLayout creates an empty layout for a cols×rows electrode array.
func NewLayout(cols, rows int) (*Layout, error) {
	if cols < 2*Margin+1 || rows < 2*Margin+1 {
		return nil, fmt.Errorf("cage: array %dx%d too small for any cage", cols, rows)
	}
	return &Layout{
		cols: cols, rows: rows,
		pos: make(map[int]geom.Cell),
		occ: make(map[geom.Cell]int),
	}, nil
}

// Cols returns the electrode-grid width.
func (l *Layout) Cols() int { return l.cols }

// Rows returns the electrode-grid height.
func (l *Layout) Rows() int { return l.rows }

// InteriorBounds returns the rectangle of legal cage-centre positions.
func (l *Layout) InteriorBounds() geom.Rect {
	return geom.GridRect(l.cols, l.rows).Inset(Margin)
}

// Len returns the number of cages.
func (l *Layout) Len() int { return len(l.pos) }

// Position returns the centre of cage id.
func (l *Layout) Position(id int) (geom.Cell, bool) {
	c, ok := l.pos[id]
	return c, ok
}

// IDs returns all cage IDs in ascending order. The order is part of the
// determinism contract: callers iterate it for releases, scans and
// layout programming, so it must not inherit map iteration order.
func (l *Layout) IDs() []int {
	out := make([]int, 0, len(l.pos))
	for id := range l.pos {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// CanPlace reports whether a new cage at c would be legal: inside the
// interior bounds and ≥ MinSeparation from every existing cage (except
// the one with ignoreID, for move legality checks).
func (l *Layout) CanPlace(c geom.Cell, ignoreID int) bool {
	if !l.InteriorBounds().Contains(c) {
		return false
	}
	for dr := -(MinSeparation - 1); dr <= MinSeparation-1; dr++ {
		for dc := -(MinSeparation - 1); dc <= MinSeparation-1; dc++ {
			n := geom.C(c.Col+dc, c.Row+dr)
			if id, ok := l.occ[n]; ok && id != ignoreID {
				return false
			}
		}
	}
	return true
}

// Place adds a cage with the given id at c.
func (l *Layout) Place(id int, c geom.Cell) error {
	if _, exists := l.pos[id]; exists {
		return fmt.Errorf("cage: id %d already placed", id)
	}
	if !l.CanPlace(c, -1) {
		return fmt.Errorf("cage: cannot place cage at %v", c)
	}
	l.pos[id] = c
	l.occ[c] = id
	l.changed = append(l.changed, c)
	return nil
}

// Remove deletes cage id (releasing the particle or completing an
// output operation).
func (l *Layout) Remove(id int) error {
	c, ok := l.pos[id]
	if !ok {
		return fmt.Errorf("cage: unknown id %d", id)
	}
	delete(l.pos, id)
	delete(l.occ, c)
	l.changed = append(l.changed, c)
	return nil
}

// CanMove reports whether cage id can take one step in direction d while
// keeping the layout legal.
func (l *Layout) CanMove(id int, d geom.Dir) bool {
	c, ok := l.pos[id]
	if !ok {
		return false
	}
	return l.CanPlace(c.Step(d), id)
}

// Move shifts cage id one step in direction d.
func (l *Layout) Move(id int, d geom.Dir) error {
	c, ok := l.pos[id]
	if !ok {
		return fmt.Errorf("cage: unknown id %d", id)
	}
	if d == geom.Stay {
		return nil
	}
	n := c.Step(d)
	if !l.CanPlace(n, id) {
		return fmt.Errorf("cage: move of %d %v from %v blocked", id, d, c)
	}
	delete(l.occ, c)
	l.pos[id] = n
	l.occ[n] = id
	l.changed = append(l.changed, c, n)
	return nil
}

// ApplyMoves performs one synchronous step: every cage in moves shifts
// simultaneously (cages absent from the map stay). The step is legal iff
// the *destination* layout is legal; with MinSeparation ≥ 2, swap and
// follow conflicts are automatically excluded. On error the layout is
// unchanged.
func (l *Layout) ApplyMoves(moves map[int]geom.Dir) error {
	// Compute destinations.
	dest := make(map[int]geom.Cell, len(l.pos))
	for id, c := range l.pos {
		d := moves[id] // zero value Stay for absent ids
		dest[id] = c.Step(d)
	}
	for id := range moves {
		if _, ok := l.pos[id]; !ok {
			return fmt.Errorf("cage: move for unknown id %d", id)
		}
	}
	// Validate destination layout.
	interior := l.InteriorBounds()
	for id, c := range dest {
		if !interior.Contains(c) {
			return fmt.Errorf("cage: %d would leave the array at %v", id, c)
		}
		for other, oc := range dest {
			if other == id {
				continue
			}
			if c.Chebyshev(oc) < MinSeparation {
				return fmt.Errorf("cage: %d and %d would collide at %v/%v", id, other, c, oc)
			}
		}
	}
	// Commit. The moved cages' old and new centres join the change list
	// in ID order, so map iteration order never reaches it.
	moved := make([]int, 0, len(moves))
	for id, d := range moves {
		if d != geom.Stay {
			moved = append(moved, id)
		}
	}
	sort.Ints(moved)
	for _, id := range moved {
		l.changed = append(l.changed, l.pos[id], dest[id])
	}
	l.occ = make(map[geom.Cell]int, len(dest))
	for id, c := range dest {
		l.pos[id] = c
		l.occ[c] = id
	}
	return nil
}

// Merge removes cage b and repositions cage a at the midpoint rounded
// toward a — the two trapped particles end in one cage (e.g. cell-bead
// pairing). The cages must be within 2·MinSeparation of each other.
func (l *Layout) Merge(a, b int) error {
	ca, ok := l.pos[a]
	if !ok {
		return fmt.Errorf("cage: unknown id %d", a)
	}
	cb, ok := l.pos[b]
	if !ok {
		return fmt.Errorf("cage: unknown id %d", b)
	}
	if ca.Chebyshev(cb) > 2*MinSeparation {
		return fmt.Errorf("cage: %d and %d too far to merge (%v, %v)", a, b, ca, cb)
	}
	mid := geom.C((ca.Col+cb.Col)/2, (ca.Row+cb.Row)/2)
	delete(l.occ, ca)
	delete(l.occ, cb)
	delete(l.pos, b)
	if !l.CanPlace(mid, a) {
		// Fall back to a's position if the midpoint is blocked.
		mid = ca
	}
	l.pos[a] = mid
	l.occ[mid] = a
	l.changed = append(l.changed, ca, cb, mid)
	return nil
}

// Split creates a second cage next to an existing one — the pattern
// elongates and pinches into two traps, separating a doublet (two
// particles that settled into one cage). The new cage with id newID is
// placed MinSeparation steps from cage id in direction d. Fails when the
// target position is illegal or newID already exists.
func (l *Layout) Split(id, newID int, d geom.Dir) error {
	c, ok := l.pos[id]
	if !ok {
		return fmt.Errorf("cage: unknown id %d", id)
	}
	if _, exists := l.pos[newID]; exists {
		return fmt.Errorf("cage: id %d already placed", newID)
	}
	if d == geom.Stay {
		return fmt.Errorf("cage: split needs a direction")
	}
	target := c
	for i := 0; i < MinSeparation; i++ {
		target = target.Step(d)
	}
	if !l.CanPlace(target, id) {
		return fmt.Errorf("cage: cannot split %d toward %v (target %v blocked)", id, d, target)
	}
	l.pos[newID] = target
	l.occ[target] = newID
	l.changed = append(l.changed, target)
	return nil
}

// Compile renders the layout to an electrode frame: PhaseA background
// with the 3×3 cage pattern at every centre. On that background the
// pattern's eight in-phase electrodes are already PhaseA, so only the
// centres differ from it.
func (l *Layout) Compile() *electrode.Frame {
	f := electrode.NewFrame(l.cols, l.rows)
	for _, c := range l.pos {
		f.SetCage(c)
	}
	return f
}

// TakeChanges appends to dst a write for each centre cell whose
// occupancy changed since the previous call (or since NewLayout),
// carrying the drive Compile gives that cell now, and clears the change
// list. A cell changed more than once may appear more than once, always
// with the same drive. Applied to the frame compiled at the previous
// call, the writes produce Compile() of the current layout; a cell
// vacated and re-occupied in between is written with its unchanged
// drive and toggles nothing.
func (l *Layout) TakeChanges(dst []electrode.Write) []electrode.Write {
	for _, c := range l.changed {
		d := electrode.PhaseA
		if _, ok := l.occ[c]; ok {
			d = electrode.PhaseB
		}
		dst = append(dst, electrode.Write{Cell: c, Drive: d})
	}
	l.changed = l.changed[:0]
	return dst
}

// Clone returns a deep copy of the layout, including its pending
// changes.
func (l *Layout) Clone() *Layout {
	out := &Layout{
		cols: l.cols, rows: l.rows,
		pos:     make(map[int]geom.Cell, len(l.pos)),
		occ:     make(map[geom.Cell]int, len(l.occ)),
		changed: append([]geom.Cell(nil), l.changed...),
	}
	for id, c := range l.pos {
		out.pos[id] = c
		out.occ[c] = id
	}
	return out
}

// GridLayout places n cages on a regular lattice with the given spacing
// (≥ MinSeparation), row-major from the top-left interior corner, IDs
// 0..n-1. It errors when the array cannot hold n cages at that spacing —
// used to reproduce the paper's "tens of thousands of cages" claim.
func GridLayout(cols, rows, n, spacing int) (*Layout, error) {
	if spacing < MinSeparation {
		return nil, fmt.Errorf("cage: spacing %d below minimum %d", spacing, MinSeparation)
	}
	l, err := NewLayout(cols, rows)
	if err != nil {
		return nil, err
	}
	in := l.InteriorBounds()
	id := 0
	for row := in.Min.Row; row < in.Max.Row && id < n; row += spacing {
		for col := in.Min.Col; col < in.Max.Col && id < n; col += spacing {
			if err := l.Place(id, geom.C(col, row)); err != nil {
				return nil, err
			}
			id++
		}
	}
	if id < n {
		return nil, fmt.Errorf("cage: array %dx%d holds only %d cages at spacing %d, need %d",
			cols, rows, id, spacing, n)
	}
	return l, nil
}

// MaxCages returns how many cages fit on a cols×rows array at the given
// spacing.
func MaxCages(cols, rows, spacing int) int {
	if spacing < MinSeparation {
		return 0
	}
	in := geom.GridRect(cols, rows).Inset(Margin)
	if in.Empty() {
		return 0
	}
	nc := (in.Cols() + spacing - 1) / spacing
	nr := (in.Rows() + spacing - 1) / spacing
	return nc * nr
}
