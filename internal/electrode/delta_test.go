package electrode

import (
	"math"
	"testing"

	"biochip/internal/geom"
)

func TestDirtyRows(t *testing.T) {
	a := NewFrame(10, 10)
	b := a.Clone()
	if a.DirtyRows(b) != 0 {
		t.Fatal("identical frames have no dirty rows")
	}
	b.Set(geom.C(3, 4), PhaseB)
	b.Set(geom.C(7, 4), Ground) // same row
	if got := a.DirtyRows(b); got != 1 {
		t.Fatalf("DirtyRows = %d, want 1", got)
	}
	b.Set(geom.C(0, 9), PhaseB)
	if got := a.DirtyRows(b); got != 2 {
		t.Fatalf("DirtyRows = %d, want 2", got)
	}
}

func TestDirtyRowsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched dims should panic")
		}
	}()
	NewFrame(2, 2).DirtyRows(NewFrame(3, 3))
}

func TestRowsProgramTime(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.RowsProgramTime(0); got != 0 {
		t.Errorf("zero rows should cost nothing, got %g", got)
	}
	full := cfg.FrameProgramTime()
	if got := cfg.RowsProgramTime(cfg.Rows); math.Abs(got-full) > 1e-15 {
		t.Errorf("all rows should equal full frame: %g vs %g", got, full)
	}
	if got := cfg.RowsProgramTime(cfg.Rows + 50); math.Abs(got-full) > 1e-15 {
		t.Error("over-count should clamp to full frame")
	}
	one := cfg.RowsProgramTime(1)
	if math.Abs(one*float64(cfg.Rows)-full) > 1e-12 {
		t.Errorf("per-row time inconsistent: %g × %d != %g", one, cfg.Rows, full)
	}
}

func TestProgramDeltaFasterForSparseUpdates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cols, cfg.Rows = 64, 64

	full, _ := New(cfg)
	delta, _ := New(cfg)

	f := NewFrame(64, 64)
	f.SetCage(geom.C(30, 30))
	if err := full.Program(f); err != nil {
		t.Fatal(err)
	}
	if err := delta.ProgramDelta(f); err != nil {
		t.Fatal(err)
	}
	// Moving one cage east touches 3 rows (the 3×3 pattern shifts) —
	// delta programming must be ~64/6 times faster than full.
	g := NewFrame(64, 64)
	g.SetCage(geom.C(31, 30))
	tFull0 := full.Stats().ElapsedTime
	tDelta0 := delta.Stats().ElapsedTime
	if err := full.Program(g); err != nil {
		t.Fatal(err)
	}
	if err := delta.ProgramDelta(g); err != nil {
		t.Fatal(err)
	}
	dtFull := full.Stats().ElapsedTime - tFull0
	dtDelta := delta.Stats().ElapsedTime - tDelta0
	if dtDelta >= dtFull/10 {
		t.Errorf("delta update %g should be ≫10x faster than full %g", dtDelta, dtFull)
	}
	// Semantics identical: both arrays hold the same frame.
	if !full.Frame().Equal(delta.Frame()) {
		t.Error("delta programming changed semantics")
	}
	// Energy identical (same toggles).
	if full.Stats().ActuationEnergy != delta.Stats().ActuationEnergy {
		t.Error("energy must not depend on programming mode")
	}
}

func TestProgramDeltaRejectsWrongSize(t *testing.T) {
	a, _ := New(DefaultConfig())
	if err := a.ProgramDelta(NewFrame(3, 3)); err == nil {
		t.Error("mismatched frame should be rejected")
	}
}

func TestProgramSparseRejectsOutOfBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cols, cfg.Rows = 8, 6
	a, _ := New(cfg)
	ws := []Write{{Cell: geom.C(2, 2), Drive: PhaseB}, {Cell: geom.C(2, 6), Drive: PhaseB}}
	if err := a.ProgramSparse(ws, true); err == nil {
		t.Fatal("write outside the array should be rejected")
	}
	if a.Frame().Count(PhaseB) != 0 || a.Stats().FramesWritten != 0 {
		t.Errorf("rejected write changed the array: %d PhaseB, stats %+v", a.Frame().Count(PhaseB), a.Stats())
	}
}
