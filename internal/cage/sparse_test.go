package cage

import (
	"math"
	"testing"

	"biochip/internal/electrode"
	"biochip/internal/geom"
	"biochip/internal/rng"
)

// sparseRig programs a layout the way chip.Simulator does — its pending
// changes written sparsely into a live array — next to a shadow array
// fed the full compiled frame, the reference path.
type sparseRig struct {
	t      *testing.T
	l      *Layout
	delta  bool
	arr    *electrode.Array
	shadow *electrode.Array
	ws     []electrode.Write
}

func newSparseRig(t *testing.T, cols, rows int, delta bool) *sparseRig {
	t.Helper()
	cfg := electrode.DefaultConfig()
	cfg.Cols, cfg.Rows = cols, rows
	arr, err := electrode.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := electrode.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	return &sparseRig{t: t, l: l, delta: delta, arr: arr, shadow: shadow}
}

// program writes the pending changes, programs the shadow with the
// compiled frame, and requires identical frames and bit-identical
// statistics. It returns the number of writes the sparse path issued.
func (r *sparseRig) program() int {
	r.t.Helper()
	r.ws = r.l.TakeChanges(r.ws[:0])
	if err := r.arr.ProgramSparse(r.ws, r.delta); err != nil {
		r.t.Fatal(err)
	}
	want := r.l.Compile()
	program := r.shadow.Program
	if r.delta {
		program = r.shadow.ProgramDelta
	}
	if err := program(want); err != nil {
		r.t.Fatal(err)
	}
	if !r.arr.Frame().Equal(want) {
		r.t.Fatalf("array frame differs from Compile() in %d electrodes", r.arr.Frame().Diff(want))
	}
	got, ref := r.arr.Stats(), r.shadow.Stats()
	if got.FramesWritten != ref.FramesWritten || got.ElectrodesToggled != ref.ElectrodesToggled ||
		math.Float64bits(got.ElapsedTime) != math.Float64bits(ref.ElapsedTime) ||
		math.Float64bits(got.ActuationEnergy) != math.Float64bits(ref.ActuationEnergy) {
		r.t.Fatalf("sparse stats %+v, full-frame reference %+v", got, ref)
	}
	return len(r.ws)
}

// mutate applies one random layout operation and checks that a rejected
// operation records no change.
func (r *sparseRig) mutate(src *rng.Source, nextID *int) {
	r.t.Helper()
	in := r.l.InteriorBounds()
	cell := func() geom.Cell {
		return geom.C(in.Min.Col+src.Intn(in.Cols()), in.Min.Row+src.Intn(in.Rows()))
	}
	dir := func() geom.Dir { return geom.Dirs4[src.Intn(len(geom.Dirs4))] }
	ids := r.l.IDs()
	pick := func() int {
		if len(ids) == 0 || src.Intn(10) == 0 {
			return *nextID + 1000 // unknown
		}
		return ids[src.Intn(len(ids))]
	}
	pending := len(r.l.changed)
	var err error
	switch src.Intn(7) {
	case 0, 1:
		err = r.l.Place(*nextID, cell())
		*nextID++
	case 2:
		err = r.l.Remove(pick())
	case 3:
		err = r.l.Move(pick(), dir())
	case 4:
		moves := make(map[int]geom.Dir)
		for n := 1 + src.Intn(3); n > 0; n-- {
			if src.Intn(4) == 0 {
				moves[pick()] = geom.Stay
			} else {
				moves[pick()] = dir()
			}
		}
		err = r.l.ApplyMoves(moves)
	case 5:
		err = r.l.Merge(pick(), pick())
	case 6:
		err = r.l.Split(pick(), *nextID, dir())
		*nextID++
	}
	if err != nil && len(r.l.changed) != pending {
		r.t.Fatalf("rejected operation (%v) recorded %d changes", err, len(r.l.changed)-pending)
	}
}

// TestSparseProgramEquivalence drives seeded random sequences of layout
// operations and, after every program, requires the sparse path to
// match the full-frame reference exactly: the frame equals Compile(),
// and frames written, toggles, elapsed time and energy match a shadow
// array fed Program / ProgramDelta(Compile()) bit for bit.
func TestSparseProgramEquivalence(t *testing.T) {
	for _, delta := range []bool{false, true} {
		for seed := uint64(1); seed <= 40; seed++ {
			r := newSparseRig(t, 23, 17, delta)
			src := rng.New(seed)
			nextID := 0
			for step := 0; step < 300; step++ {
				r.mutate(src, &nextID)
				if src.Intn(3) == 0 {
					r.program()
				}
			}
			r.program()
		}
	}
}

// TestSparseProgramCornerCases pins the cases random sequences hit only
// by chance: a rejected ApplyMoves leaves nothing to program, and a
// cell vacated and re-occupied between two programs is written but
// toggles nothing.
func TestSparseProgramCornerCases(t *testing.T) {
	for _, delta := range []bool{false, true} {
		r := newSparseRig(t, 12, 10, delta)
		for id, c := range []geom.Cell{geom.C(2, 2), geom.C(5, 2), geom.C(2, 6)} {
			if err := r.l.Place(id, c); err != nil {
				t.Fatal(err)
			}
		}
		r.program()

		// Cages 0 and 1 stepping toward each other would end one cell
		// apart: the whole step is rejected.
		if err := r.l.ApplyMoves(map[int]geom.Dir{0: geom.East, 1: geom.West}); err == nil {
			t.Fatal("colliding step should be rejected")
		}
		before := r.arr.Stats()
		if n := r.program(); n != 0 {
			t.Fatalf("rejected ApplyMoves left %d writes to program", n)
		}
		if got := r.arr.Stats(); got.ElectrodesToggled != before.ElectrodesToggled {
			t.Fatalf("rejected step toggled %d electrodes", got.ElectrodesToggled-before.ElectrodesToggled)
		}

		// Vacate (2,2) and re-occupy it with another cage, and move cage 1
		// away and back: six writes on three cells, no electrode toggled.
		if err := r.l.Remove(0); err != nil {
			t.Fatal(err)
		}
		if err := r.l.Place(7, geom.C(2, 2)); err != nil {
			t.Fatal(err)
		}
		if err := r.l.Move(1, geom.East); err != nil {
			t.Fatal(err)
		}
		if err := r.l.Move(1, geom.West); err != nil {
			t.Fatal(err)
		}
		before = r.arr.Stats()
		if n := r.program(); n != 6 {
			t.Fatalf("vacate/re-occupy wrote %d cells, want 6", n)
		}
		if got := r.arr.Stats(); got.ElectrodesToggled != before.ElectrodesToggled {
			t.Fatalf("vacate/re-occupy toggled %d electrodes", got.ElectrodesToggled-before.ElectrodesToggled)
		}
		if delta {
			if got := r.arr.Stats(); got.ElapsedTime != before.ElapsedTime {
				t.Fatalf("no-op delta program charged %g s", got.ElapsedTime-before.ElapsedTime)
			}
		}
	}
}
