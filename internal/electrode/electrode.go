// Package electrode models the programmable electrode array at the heart
// of the CMOS biochip: a grid of metal electrodes, each with embedded
// pattern memory, driven by one of two counter-phase AC waveforms or held
// at a DC counter-electrode potential.
//
// The model follows the architecture of the authors' chip (IEDM'00 /
// JSSC'03 lineage referenced by the paper): electrodes are programmed row
// by row through a row decoder and column data latches, so reprogramming
// the whole array costs Rows × (Cols/BusWidth + overhead) clock cycles.
// The paper's second consideration — electronics is vastly faster than
// mass transfer — is quantified by comparing this programming time against
// cell motion timescales (see the timing experiment E5).
//
// Cost model: simulated time follows the hardware — a full-frame program
// costs FrameProgramTime whatever changed, a delta program the dirty rows
// it rewrites. Host cost is separate. Program and ProgramDelta diff a
// whole frame, O(electrodes), and are the reference for ProgramSparse,
// which updates the live frame in place from a list of writes,
// O(changed electrodes), and charges the same simulated time, toggles
// and energy as programming the frame it produces.
package electrode

import (
	"fmt"

	"biochip/internal/geom"
	"biochip/internal/units"
)

// Drive is the per-electrode actuation state stored in the pixel memory.
type Drive uint8

// Electrode drive states. In the two-phase DEP scheme, a cage is formed by
// driving a central electrode in counter-phase (PhaseB) against in-phase
// neighbours (PhaseA), with the conductive lid held at the counter
// electrode potential.
const (
	// PhaseA drives the electrode with the in-phase sinusoid +V·sin(ωt).
	PhaseA Drive = iota
	// PhaseB drives the electrode with the counter-phase sinusoid
	// −V·sin(ωt).
	PhaseB
	// Ground ties the electrode to the AC ground (lid potential).
	Ground
)

var driveNames = [...]string{"A", "B", "gnd"}

// String implements fmt.Stringer.
func (d Drive) String() string {
	if int(d) < len(driveNames) {
		return driveNames[d]
	}
	return fmt.Sprintf("Drive(%d)", uint8(d))
}

// Config describes the physical and electrical geometry of an array.
type Config struct {
	// Cols, Rows are the electrode grid dimensions.
	Cols, Rows int
	// Pitch is the electrode pitch in metres.
	Pitch float64
	// Voltage is the actuation sinusoid amplitude in volts.
	Voltage float64
	// Frequency is the actuation frequency in hertz.
	Frequency float64
	// ClockHz is the digital programming clock.
	ClockHz float64
	// BusWidth is the number of column bits loaded per clock.
	BusWidth int
	// RowOverheadCycles is decoder/strobe overhead per row.
	RowOverheadCycles int
	// BitsPerPixel is the pattern memory depth per electrode.
	BitsPerPixel int
	// ElectrodeCap is the electrode-to-liquid capacitance in farads,
	// used for actuation energy estimates.
	ElectrodeCap float64
}

// DefaultConfig returns the paper-scale platform: >100k electrodes at
// 20 µm pitch on a 10 MHz programming clock.
func DefaultConfig() Config {
	return Config{
		Cols:              320,
		Rows:              320,
		Pitch:             20 * units.Micron,
		Voltage:           3.3,
		Frequency:         1 * units.Megahertz,
		ClockHz:           10 * units.Megahertz,
		BusWidth:          32,
		RowOverheadCycles: 4,
		BitsPerPixel:      2,
		ElectrodeCap:      20 * units.Femtofarad,
	}
}

// Validate reports whether the configuration is physically meaningful.
func (c Config) Validate() error {
	switch {
	case c.Cols <= 0 || c.Rows <= 0:
		return fmt.Errorf("electrode: non-positive array dims %dx%d", c.Cols, c.Rows)
	case c.Pitch <= 0:
		return fmt.Errorf("electrode: non-positive pitch %g", c.Pitch)
	case c.Voltage <= 0:
		return fmt.Errorf("electrode: non-positive voltage %g", c.Voltage)
	case c.Frequency <= 0:
		return fmt.Errorf("electrode: non-positive frequency %g", c.Frequency)
	case c.ClockHz <= 0:
		return fmt.Errorf("electrode: non-positive clock %g", c.ClockHz)
	case c.BusWidth <= 0:
		return fmt.Errorf("electrode: non-positive bus width %d", c.BusWidth)
	case c.RowOverheadCycles < 0:
		return fmt.Errorf("electrode: negative row overhead %d", c.RowOverheadCycles)
	}
	return nil
}

// NumElectrodes returns the total electrode count.
func (c Config) NumElectrodes() int { return c.Cols * c.Rows }

// ArrayArea returns the active-array silicon area in m².
func (c Config) ArrayArea() float64 {
	return c.Pitch * c.Pitch * float64(c.NumElectrodes())
}

// Bounds returns the array extent as a grid rectangle.
func (c Config) Bounds() geom.Rect { return geom.GridRect(c.Cols, c.Rows) }

// RowProgramCycles returns clock cycles needed to program one row.
func (c Config) RowProgramCycles() int {
	words := (c.Cols*c.BitsPerPixel + c.BusWidth - 1) / c.BusWidth
	return words + c.RowOverheadCycles
}

// FrameProgramTime returns the wall-clock time to reprogram the entire
// array once (seconds). This is the actuation-update latency that E5
// compares against cell transit times.
func (c Config) FrameProgramTime() float64 {
	cycles := c.RowProgramCycles() * c.Rows
	return float64(cycles) / c.ClockHz
}

// RowsProgramTime returns the time to program just n rows (delta
// programming: the row decoder is random-access, so an update that
// touches few rows costs only those rows plus fixed overhead).
func (c Config) RowsProgramTime(n int) float64 {
	if n < 0 {
		n = 0
	}
	if n > c.Rows {
		n = c.Rows
	}
	cycles := c.RowProgramCycles() * n
	return float64(cycles) / c.ClockHz
}

// MaxFrameRate returns the maximum full-array reprogram rate in Hz.
func (c Config) MaxFrameRate() float64 { return 1 / c.FrameProgramTime() }

// Frame is one full-array actuation pattern.
type Frame struct {
	cols, rows int
	drive      []Drive
}

// NewFrame allocates a frame with every electrode in PhaseA (the uniform
// background state that forms no cages).
func NewFrame(cols, rows int) *Frame {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("electrode: invalid frame dims %dx%d", cols, rows))
	}
	return &Frame{cols: cols, rows: rows, drive: make([]Drive, cols*rows)}
}

// Cols returns the frame width.
func (f *Frame) Cols() int { return f.cols }

// Rows returns the frame height.
func (f *Frame) Rows() int { return f.rows }

// Bounds returns the frame extent.
func (f *Frame) Bounds() geom.Rect { return geom.GridRect(f.cols, f.rows) }

// idx converts a cell to a flat index; callers must bounds-check first.
func (f *Frame) idx(c geom.Cell) int { return c.Row*f.cols + c.Col }

// In reports whether c lies inside the frame.
func (f *Frame) In(c geom.Cell) bool {
	return c.Col >= 0 && c.Col < f.cols && c.Row >= 0 && c.Row < f.rows
}

// Get returns the drive state at c; out-of-bounds cells read as PhaseA.
func (f *Frame) Get(c geom.Cell) Drive {
	if !f.In(c) {
		return PhaseA
	}
	return f.drive[f.idx(c)]
}

// Set assigns the drive state at c; out-of-bounds writes are ignored.
func (f *Frame) Set(c geom.Cell, d Drive) {
	if f.In(c) {
		f.drive[f.idx(c)] = d
	}
}

// Fill sets every electrode to d.
func (f *Frame) Fill(d Drive) {
	for i := range f.drive {
		f.drive[i] = d
	}
}

// Clone returns a deep copy.
func (f *Frame) Clone() *Frame {
	out := NewFrame(f.cols, f.rows)
	copy(out.drive, f.drive)
	return out
}

// Equal reports whether two frames have identical dimensions and drive.
func (f *Frame) Equal(g *Frame) bool {
	if f.cols != g.cols || f.rows != g.rows {
		return false
	}
	for i := range f.drive {
		if f.drive[i] != g.drive[i] {
			return false
		}
	}
	return true
}

// Diff returns the number of electrodes whose drive differs between f and
// g. Frames must have identical dimensions.
func (f *Frame) Diff(g *Frame) int {
	if f.cols != g.cols || f.rows != g.rows {
		panic("electrode: Diff dimension mismatch")
	}
	n := 0
	for i := range f.drive {
		if f.drive[i] != g.drive[i] {
			n++
		}
	}
	return n
}

// DirtyRows returns the number of rows on which f and g differ — the
// rows a delta reprogram must rewrite. Frames must have identical
// dimensions.
func (f *Frame) DirtyRows(g *Frame) int {
	if f.cols != g.cols || f.rows != g.rows {
		panic("electrode: DirtyRows dimension mismatch")
	}
	dirty := 0
	for r := 0; r < f.rows; r++ {
		base := r * f.cols
		for c := 0; c < f.cols; c++ {
			if f.drive[base+c] != g.drive[base+c] {
				dirty++
				break
			}
		}
	}
	return dirty
}

// Count returns how many electrodes are in drive state d.
func (f *Frame) Count(d Drive) int {
	n := 0
	for _, v := range f.drive {
		if v == d {
			n++
		}
	}
	return n
}

// SetCage writes the canonical closed-cage pattern centred at c: the
// centre electrode in counter-phase (PhaseB) surrounded by its 8
// neighbours in PhaseA. Electrodes outside the frame are skipped.
func (f *Frame) SetCage(c geom.Cell) {
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			n := geom.C(c.Col+dc, c.Row+dr)
			if dc == 0 && dr == 0 {
				f.Set(n, PhaseB)
			} else if f.Get(n) != PhaseB {
				f.Set(n, PhaseA)
			}
		}
	}
}

// CageCenters scans the frame and returns the cells holding the cage
// pattern (a PhaseB electrode none of whose 4-neighbours is PhaseB).
func (f *Frame) CageCenters() []geom.Cell {
	var out []geom.Cell
	for row := 0; row < f.rows; row++ {
		for col := 0; col < f.cols; col++ {
			c := geom.C(col, row)
			if f.Get(c) != PhaseB {
				continue
			}
			isolated := true
			for _, d := range geom.Dirs4 {
				if n := c.Step(d); f.In(n) && f.Get(n) == PhaseB {
					isolated = false
					break
				}
			}
			if isolated {
				out = append(out, c)
			}
		}
	}
	return out
}

// Array couples a Config with a live frame and accumulates programming
// statistics (frames written, electrodes toggled, elapsed chip time and
// actuation energy).
type Array struct {
	cfg     Config
	current *Frame

	// rowMark and epoch count a sparse write's dirty rows without
	// clearing anything: row r is dirty in the current write iff
	// rowMark[r] == epoch.
	rowMark []uint64
	epoch   uint64

	framesWritten int
	toggles       int64
	elapsed       float64
	energy        float64
}

// New builds an Array from a validated config.
func New(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Array{
		cfg:     cfg,
		current: NewFrame(cfg.Cols, cfg.Rows),
		rowMark: make([]uint64, cfg.Rows),
	}, nil
}

// Config returns the array configuration.
func (a *Array) Config() Config { return a.cfg }

// Frame returns the live programmed frame. Every program updates it in
// place, so it always shows the current drive; Clone it to keep a
// snapshot. Callers must not modify it.
func (a *Array) Frame() *Frame { return a.current }

// Program writes a new frame into the array, accounting the programming
// time, the number of toggled electrodes and the actuation energy spent
// re-charging toggled electrode capacitances.
func (a *Array) Program(f *Frame) error {
	return a.program(f, false)
}

// ProgramDelta writes a new frame rewriting only the rows that changed
// (random-access row decoder). Semantically identical to Program but
// charges RowsProgramTime(dirty rows) instead of the full frame time —
// the update latency for sparse cage moves collapses accordingly.
func (a *Array) ProgramDelta(f *Frame) error {
	return a.program(f, true)
}

func (a *Array) program(f *Frame, delta bool) error {
	if f.cols != a.cfg.Cols || f.rows != a.cfg.Rows {
		return fmt.Errorf("electrode: frame %dx%d does not match array %dx%d",
			f.cols, f.rows, a.cfg.Cols, a.cfg.Rows)
	}
	dirty := 0
	if delta {
		dirty = a.current.DirtyRows(f)
	}
	a.account(a.current.Diff(f), dirty, delta)
	copy(a.current.drive, f.drive)
	return nil
}

// Write is one electrode assignment of a sparse frame update.
type Write struct {
	Cell  geom.Cell
	Drive Drive
}

// ProgramSparse updates the live frame in place, applying only the
// listed writes. It is the same frame update as Program (or, with
// delta, ProgramDelta) of the frame it produces — the same frames
// written, toggles, simulated time and energy — at a host cost of
// O(len(ws)) instead of O(electrodes). A cell may appear more than once
// only with the same drive each time; writes that leave a drive
// unchanged toggle nothing. Out-of-bounds writes are rejected before any
// electrode changes.
func (a *Array) ProgramSparse(ws []Write, delta bool) error {
	for _, w := range ws {
		if !a.current.In(w.Cell) {
			return fmt.Errorf("electrode: write at %v outside array %dx%d",
				w.Cell, a.cfg.Cols, a.cfg.Rows)
		}
	}
	a.epoch++
	tog, dirty := 0, 0
	for _, w := range ws {
		i := a.current.idx(w.Cell)
		if a.current.drive[i] == w.Drive {
			continue
		}
		a.current.drive[i] = w.Drive
		tog++
		if a.rowMark[w.Cell.Row] != a.epoch {
			a.rowMark[w.Cell.Row] = a.epoch
			dirty++
		}
	}
	a.account(tog, dirty, delta)
	return nil
}

// account charges one frame program that toggled tog electrodes on
// dirty rows: full-frame time, or with delta only the dirty rows.
func (a *Array) account(tog, dirty int, delta bool) {
	a.toggles += int64(tog)
	a.framesWritten++
	if delta {
		a.elapsed += a.cfg.RowsProgramTime(dirty)
	} else {
		a.elapsed += a.cfg.FrameProgramTime()
	}
	// Each toggled electrode swings ~2V across its capacitance: E = ½CV²
	// per edge, with a 2V swing between phases → 2·C·V².
	v := a.cfg.Voltage
	a.energy += 2 * a.cfg.ElectrodeCap * v * v * float64(tog)
}

// Stats reports cumulative programming activity.
type Stats struct {
	FramesWritten     int
	ElectrodesToggled int64
	ElapsedTime       float64
	ActuationEnergy   float64
}

// Stats returns cumulative counters since construction.
func (a *Array) Stats() Stats {
	return Stats{
		FramesWritten:     a.framesWritten,
		ElectrodesToggled: a.toggles,
		ElapsedTime:       a.elapsed,
		ActuationEnergy:   a.energy,
	}
}
