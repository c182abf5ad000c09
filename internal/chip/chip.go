// Package chip is the full-platform simulator: it couples the
// programmable electrode array (electrode), the calibrated DEP cage
// physics (dep), the particle dynamics (particle), the cage layout layer
// (cage), the routing CAD (route) and the sensing chain (sensor) into a
// time-stepped model of the paper's system — >100,000 electrodes
// creating tens of thousands of cages in a ~4 µl drop, trapping,
// moving and detecting individual cells.
//
// It is the substitute for the authors' silicon: every experiment that
// the paper's platform would run on-chip runs here instead, with the
// same architectural timings (frame programming, scan readout) and the
// same physical speed limits (drag-limited cage shifting).
package chip

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"biochip/internal/cage"
	"biochip/internal/chamber"
	"biochip/internal/dep"
	"biochip/internal/electrode"
	"biochip/internal/geom"
	"biochip/internal/parallel"
	"biochip/internal/particle"
	"biochip/internal/rng"
	"biochip/internal/route"
	"biochip/internal/sensor"
	"biochip/internal/stream"
	"biochip/internal/thermal"
	"biochip/internal/units"
)

// RNG stream domains: every stochastic consumer derives its noise from
// cfg.Seed via rng.Substream under a disjoint index namespace, so no two
// consumers ever share (or race on) a stream and results are independent
// of both iteration order and worker count.
const (
	// streamParticle + particle ID → that particle's Brownian stream.
	streamParticle uint64 = 1 << 48
	// streamScan + scan sequence number → the base of that scan's
	// per-site noise streams.
	streamScan uint64 = 2 << 48
)

// Config assembles a full platform.
type Config struct {
	// Array is the electrode-array architecture.
	Array electrode.Config
	// GapFrac is the electrode gap fraction used for cage calibration.
	GapFrac float64
	// DropVolume is the sample volume placed on the chip.
	DropVolume float64
	// Env is the liquid environment.
	Env particle.Environment
	// Sensor is the capacitive sensing pixel.
	Sensor sensor.Capacitive
	// SensorParallelism is the number of parallel readout converters.
	SensorParallelism int
	// SafetyFactor derates the drag-limited cage speed (< 1).
	SafetyFactor float64
	// DeltaProgramming rewrites only changed rows on each frame update
	// instead of the full array (the row decoder is random-access).
	DeltaProgramming bool
	// Seed drives all stochastic behaviour.
	Seed uint64
	// Parallelism caps the worker goroutines used for the per-particle
	// and per-site hot loops. 0 means runtime.GOMAXPROCS(0); 1 runs
	// strictly serially. Any value produces bit-identical results for a
	// fixed Seed: all noise comes from per-index substreams.
	Parallelism int
}

// DefaultConfig returns the paper-scale platform.
func DefaultConfig() Config {
	arr := electrode.DefaultConfig()
	sens := sensor.DefaultCapacitive()
	sens.Pitch = arr.Pitch
	return Config{
		Array:             arr,
		GapFrac:           0.15,
		DropVolume:        4 * units.Microliter,
		Env:               particle.DefaultEnvironment(),
		Sensor:            sens,
		SensorParallelism: arr.Cols, // row-parallel readout
		SafetyFactor:      0.5,
		Seed:              1,
		Parallelism:       runtime.GOMAXPROCS(0),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Array.Validate(); err != nil {
		return err
	}
	if err := c.Env.Validate(); err != nil {
		return err
	}
	if err := c.Sensor.Validate(); err != nil {
		return err
	}
	switch {
	case c.DropVolume <= 0:
		return errors.New("chip: non-positive drop volume")
	case c.GapFrac < 0 || c.GapFrac >= 0.9:
		return errors.New("chip: gap fraction out of range")
	case c.SafetyFactor <= 0 || c.SafetyFactor > 1:
		return errors.New("chip: safety factor must be in (0,1]")
	case c.SensorParallelism < 1:
		return errors.New("chip: need at least one readout converter")
	case c.Parallelism < 0:
		return errors.New("chip: negative parallelism")
	}
	return nil
}

// Simulator is a live platform instance.
type Simulator struct {
	cfg       Config
	array     *electrode.Array
	cageModel *dep.CageModel
	chamber   chamber.Chamber
	layout    *cage.Layout
	// writes is programLayout's reused buffer of sparse electrode writes.
	writes    []electrode.Write
	particles map[int]*particle.Particle
	src       *rng.Source
	// noise holds each particle's private Brownian stream, derived from
	// cfg.Seed and the particle ID. Per-particle streams make particle
	// trajectories independent of iteration order and worker count.
	noise  map[int]*rng.Source
	nextID int
	// scans counts completed Scan calls; it namespaces each scan's
	// per-site noise substreams.
	scans uint64

	// clock is elapsed assay time in seconds.
	clock float64
	// log records notable events.
	log []string
	// sink, when set, receives progress events (scan-table row batches,
	// executed-plan provenance) as the die produces them. Emission
	// happens only on the goroutine driving the simulator, in
	// deterministic order, so the event stream inherits the simulator's
	// determinism contract.
	sink stream.Sink
	// traces holds per-particle position recordings (see EnableTrace).
	traces map[int][]TracePoint

	// planMu guards planStats: executions mutate it while service
	// monitoring (GET /v1/stats) reads it concurrently.
	planMu sync.Mutex
	// planStats accumulates routing provenance per planner name over the
	// die's lifetime (it deliberately survives Reset, like a hardware
	// odometer, so fleet counters aggregate across requests).
	planStats map[string]PlannerStat
}

// PlannerStat is the per-planner provenance record of one die: how many
// plans a planner produced for it, how much motion they encoded, and the
// cumulative wall-clock planning cost reported via RecordPlanTime.
type PlannerStat struct {
	// Plans counts executed plans attributed to the planner.
	Plans uint64 `json:"plans"`
	// Steps sums plan makespans; Moves sums non-wait cage steps.
	Steps uint64 `json:"steps"`
	Moves uint64 `json:"moves"`
	// PlanSeconds is cumulative wall-clock planning time. It is
	// telemetry, not simulation state: it never feeds back into results
	// and is excluded from the determinism contract.
	PlanSeconds float64 `json:"plan_seconds"`
}

// New builds and calibrates a simulator. Calibration solves the cage
// field problem once (the expensive step) and is reused for every cage.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	arr, err := electrode.New(cfg.Array)
	if err != nil {
		return nil, err
	}
	side := cfg.Array.Pitch * float64(cfg.Array.Cols)
	depth := cfg.Array.Pitch * float64(cfg.Array.Rows)
	cham, err := chamber.FromDrop(cfg.DropVolume, side, depth)
	if err != nil {
		return nil, err
	}
	spec := dep.CageSpec{
		Pitch:         cfg.Array.Pitch,
		GapFrac:       cfg.GapFrac,
		ChamberHeight: cham.Height,
		Voltage:       cfg.Array.Voltage,
		Medium:        cfg.Env.Medium,
	}
	model, err := dep.NewCageModel(spec)
	if err != nil {
		return nil, err
	}
	layout, err := cage.NewLayout(cfg.Array.Cols, cfg.Array.Rows)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:       cfg,
		array:     arr,
		cageModel: model,
		chamber:   cham,
		layout:    layout,
		planStats: make(map[string]PlannerStat),
	}
	s.boot()
	return s, nil
}

// boot (re)initializes the mutable run state — particles, noise streams,
// clocks, counters and the event log — leaving the calibrated physics
// (cage model, chamber) and the freshly built array/layout in place. New
// and Reset share it so a reset die is bit-identical to a new one.
func (s *Simulator) boot() {
	s.particles = make(map[int]*particle.Particle)
	s.noise = make(map[int]*rng.Source)
	s.src = rng.New(s.cfg.Seed)
	s.nextID = 0
	s.scans = 0
	s.clock = 0
	s.log = nil
	s.traces = nil
	s.sink = nil
	s.logf("platform up: %d electrodes, %s pitch, %s chamber",
		s.cfg.Array.NumElectrodes(), units.Format(s.cfg.Array.Pitch, "m"),
		units.Format(s.chamber.Height, "m"))
	// Thermal sanity: solve the device-stack steady state and warn when
	// the medium rise threatens cell physiology (the reason DEP chips
	// run special low-conductivity buffers).
	if rise, err := s.MediumTemperatureRise(); err == nil && rise > 1.0 {
		s.logf("WARNING: medium heats %.1f K at this drive/conductivity — not cell-safe", rise)
	}
}

// Reset returns the simulator to its just-built state under a new seed,
// reusing the calibrated cage model and chamber geometry. This is the
// cheap path for running many independent assays on one die: a reset
// simulator behaves bit-identically to chip.New with the same Config and
// Seed (calibration is the expensive step and is never repeated).
func (s *Simulator) Reset(seed uint64) error {
	arr, err := electrode.New(s.cfg.Array)
	if err != nil {
		return err
	}
	layout, err := cage.NewLayout(s.cfg.Array.Cols, s.cfg.Array.Rows)
	if err != nil {
		return err
	}
	s.cfg.Seed = seed
	s.array = arr
	s.layout = layout
	s.boot()
	return nil
}

// MediumTemperatureRise solves the Fig. 3 stack thermally and returns
// the steady-state peak temperature rise in the liquid (K).
func (s *Simulator) MediumTemperatureRise() (float64, error) {
	st := thermal.Fig3Stack(s.chamber.Height, s.cfg.Env.Medium.Conductivity, s.cfg.Array.Voltage)
	g, err := st.Discretize(16)
	if err != nil {
		return 0, err
	}
	if err := g.SolveSteady(); err != nil {
		return 0, err
	}
	return g.LayerMaxRise("liquid")
}

// Config returns the platform configuration the simulator was built
// with (Seed reflects the most recent Reset).
func (s *Simulator) Config() Config { return s.cfg }

// Clock returns elapsed assay time in seconds.
func (s *Simulator) Clock() float64 { return s.clock }

// Chamber returns the liquid chamber geometry.
func (s *Simulator) Chamber() chamber.Chamber { return s.chamber }

// CageModel exposes the calibrated cage physics.
func (s *Simulator) CageModel() *dep.CageModel { return s.cageModel }

// Layout returns the live cage layout (read-only use).
func (s *Simulator) Layout() *cage.Layout { return s.layout }

// ArrayStats returns cumulative electrode-array activity.
func (s *Simulator) ArrayStats() electrode.Stats { return s.array.Stats() }

// Particles returns the number of particles in the chamber.
func (s *Simulator) Particles() int { return len(s.particles) }

// Particle returns a particle by ID.
func (s *Simulator) Particle(id int) (*particle.Particle, bool) {
	p, ok := s.particles[id]
	return p, ok
}

// Log returns the event log.
func (s *Simulator) Log() []string { return s.log }

// SetSink installs (or, with nil, removes) the progress-event sink.
// While set, Scan streams its detection table in row batches
// (stream.ScanRows) and ExecutePlan reports routing provenance
// (stream.PlanExecuted). The sink is invoked synchronously on the
// executing goroutine and is cleared by Reset; it must not block
// (stream.Ring.Publish never does).
func (s *Simulator) SetSink(sink stream.Sink) { s.sink = sink }

// emit forwards an event to the sink, stamping the simulated clock.
func (s *Simulator) emit(ev stream.Event) {
	if s.sink == nil {
		return
	}
	ev.T = s.clock
	s.sink(ev)
}

// PlanStats returns a copy of the die's per-planner provenance counters
// (see PlannerStat). Safe to call while the die executes.
func (s *Simulator) PlanStats() map[string]PlannerStat {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	out := make(map[string]PlannerStat, len(s.planStats))
	for k, v := range s.planStats {
		out[k] = v
	}
	return out
}

// RecordPlanTime attributes wall-clock planning time to a planner on
// this die — the half of the provenance record ExecutePlan cannot see
// (plans arrive already computed). The assay executor calls it around
// every routing invocation.
func (s *Simulator) RecordPlanTime(planner string, seconds float64) {
	if planner == "" {
		return
	}
	s.planMu.Lock()
	st := s.planStats[planner]
	st.PlanSeconds += seconds
	s.planStats[planner] = st
	s.planMu.Unlock()
}

// recordPlanExec is the ExecutePlan side of the provenance hook.
func (s *Simulator) recordPlanExec(planner string, steps, moves int) {
	s.planMu.Lock()
	st := s.planStats[planner]
	st.Plans++
	st.Steps += uint64(steps)
	st.Moves += uint64(moves)
	s.planStats[planner] = st
	s.planMu.Unlock()
}

// workers resolves the configured parallelism to a concrete degree.
func (s *Simulator) workers() int { return parallel.Degree(s.cfg.Parallelism) }

func (s *Simulator) logf(format string, args ...interface{}) {
	s.log = append(s.log, fmt.Sprintf("[t=%s] ", units.FormatDuration(s.clock))+fmt.Sprintf(format, args...))
}

// Load scatters n particles of the given kind near the top of the
// chamber (as a pipetted sample) and returns their IDs.
func (s *Simulator) Load(kind *particle.Kind, n int) ([]int, error) {
	side := s.cfg.Array.Pitch * float64(s.cfg.Array.Cols)
	depth := s.cfg.Array.Pitch * float64(s.cfg.Array.Rows)
	pop, err := particle.Population(kind, n, side, depth, s.chamber.Height*0.9, s.nextID, s.src)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(pop))
	for i, p := range pop {
		s.particles[p.ID] = p
		s.noise[p.ID] = rng.Substream(s.cfg.Seed, streamParticle+uint64(p.ID))
		ids[i] = p.ID
	}
	s.nextID += n
	s.logf("loaded %d × %s", n, kind.Name)
	return ids, nil
}

// Settle advances time with no actuation: particles sediment and
// diffuse. Returns the fraction that reached the near-surface capture
// zone (below twice the cage trap height).
func (s *Simulator) Settle(duration float64) float64 {
	if duration <= 0 || len(s.particles) == 0 {
		return s.captureZoneFraction()
	}
	const steps = 50
	dt := duration / steps
	side := s.cfg.Array.Pitch * float64(s.cfg.Array.Cols)
	depth := s.cfg.Array.Pitch * float64(s.cfg.Array.Rows)
	parts := s.sortedParticles()
	// Per-step sample clocks, accumulated the same way the serial loop
	// advances them.
	times := make([]float64, steps)
	clock := s.clock
	for i := range times {
		clock += dt
		times[i] = clock
	}
	// Particles do not interact during settling and each draws Brownian
	// noise from its own substream, so workers own disjoint particle
	// ranges and march them through every sub-step without synchronizing.
	// Traced particles buffer their samples locally; merged below.
	sampled := make([][]geom.Vec3, len(parts))
	parallel.For(s.workers(), len(parts), func(idx int) {
		p := parts[idx]
		_, wantTrace := s.traces[p.ID]
		var samples []geom.Vec3
		if wantTrace {
			samples = make([]geom.Vec3, steps)
		}
		if p.Trapped {
			// Held particles sit still but their traces still sample.
			for i := range samples {
				samples[i] = p.Pos
			}
			sampled[idx] = samples
			return
		}
		w := p.Weight(s.cfg.Env.MediumDensity)
		src := s.noise[p.ID]
		for i := 0; i < steps; i++ {
			particle.Step(p, geom.V3(0, 0, -w), dt, s.cfg.Env, src)
			particle.ClampToChamber(p, 0, 0, side, depth, s.chamber.Height)
			if wantTrace {
				samples[i] = p.Pos
			}
		}
		sampled[idx] = samples
	})
	s.clock = clock
	for idx, samples := range sampled {
		if samples == nil {
			continue
		}
		id := parts[idx].ID
		for i, pos := range samples {
			s.traces[id] = append(s.traces[id], TracePoint{Time: times[i], Pos: pos})
		}
	}
	s.clock += duration - float64(steps)*dt
	frac := s.captureZoneFraction()
	s.logf("settled %s: %.0f%% in capture zone", units.FormatDuration(duration), 100*frac)
	return frac
}

func (s *Simulator) captureZoneFraction() float64 {
	if len(s.particles) == 0 {
		return 0
	}
	zone := 2 * s.cageModel.TrapHeight
	n := 0
	for _, p := range s.particles {
		if p.Trapped || p.Pos.Z <= zone {
			n++
		}
	}
	return float64(n) / float64(len(s.particles))
}

// CaptureAll forms a full lattice of cages and traps every particle in
// the capture zone into its nearest legal cage. Returns the number of
// cages formed and particles trapped. This reproduces the paper's
// "tens of thousands of DEP cages which can trap cells in levitation".
func (s *Simulator) CaptureAll() (cages, trapped int, err error) {
	pitch := s.cfg.Array.Pitch
	zone := 2 * s.cageModel.TrapHeight
	// Trap particles one by one at the lattice point nearest to them.
	// Cage assignment is inherently serial (each placement constrains the
	// next), but the expensive settle phase — solving every trapped
	// particle's levitation height — is embarrassingly parallel.
	var caught []*particle.Particle
	for _, p := range s.sortedParticles() {
		if p.Trapped || p.Pos.Z > zone {
			continue
		}
		c := geom.C(
			int(math.Round(p.Pos.X/pitch)),
			int(math.Round(p.Pos.Y/pitch)),
		)
		c = s.layout.InteriorBounds().ClampCell(c)
		cell, ok := s.nearestFree(c, 6)
		if !ok {
			continue
		}
		if err := s.layout.Place(p.ID, cell); err != nil {
			continue
		}
		p.Trapped = true
		p.Cage = cell
		caught = append(caught, p)
		trapped++
	}
	parallel.For(s.workers(), len(caught), func(i int) {
		s.snapToCage(caught[i])
	})
	// Program the frame once.
	if err := s.programLayout(); err != nil {
		return 0, 0, err
	}
	// Let the trapped particles relax into their cages.
	s.clock += 5 * s.cageModel.LateralRelaxationTime(10*units.Micron, 0.3, s.cfg.Env.Viscosity)
	cages = s.layout.Len()
	s.logf("capture: %d cages, %d particles trapped", cages, trapped)
	return cages, trapped, nil
}

// sortedParticles returns particles in ID order for determinism.
func (s *Simulator) sortedParticles() []*particle.Particle {
	out := make([]*particle.Particle, 0, len(s.particles))
	for id := 0; id < s.nextID; id++ {
		if p, ok := s.particles[id]; ok {
			out = append(out, p)
		}
	}
	return out
}

// nearestFree spirals outward from c for a legal cage position.
func (s *Simulator) nearestFree(c geom.Cell, maxRadius int) (geom.Cell, bool) {
	if s.layout.CanPlace(c, -1) {
		return c, true
	}
	for r := 1; r <= maxRadius; r++ {
		for dr := -r; dr <= r; dr++ {
			for dc := -r; dc <= r; dc++ {
				if maxInt(absInt(dc), absInt(dr)) != r {
					continue
				}
				n := geom.C(c.Col+dc, c.Row+dr)
				if s.layout.CanPlace(n, -1) {
					return n, true
				}
			}
		}
	}
	return geom.Cell{}, false
}

// snapToCage puts a trapped particle at its cage's levitation point.
func (s *Simulator) snapToCage(p *particle.Particle) {
	pitch := s.cfg.Array.Pitch
	reCM := p.CM(s.cfg.Env.Medium, s.cfg.Env.Frequency)
	z, ok := s.cageModel.LevitationHeight(p.Radius, reCM, p.Kind.Density, s.cfg.Env.MediumDensity)
	if !ok {
		z = p.Radius
	}
	p.Pos = geom.V3(float64(p.Cage.Col)*pitch, float64(p.Cage.Row)*pitch, z)
}

// programLayout programs the layout's changes since the last program
// into the array, so the array's frame equals s.layout.Compile()
// afterwards. The host cost is O(changed electrodes); the simulated cost
// is one full-frame program, or the dirty rows with DeltaProgramming.
func (s *Simulator) programLayout() error {
	s.writes = s.layout.TakeChanges(s.writes[:0])
	before := s.array.Stats().ElapsedTime
	if err := s.array.ProgramSparse(s.writes, s.cfg.DeltaProgramming); err != nil {
		return err
	}
	s.clock += s.array.Stats().ElapsedTime - before
	return nil
}

// StepTime returns the wall-clock duration of one cage step: the pitch
// divided by the derated drag-limited speed of the slowest trapped
// particle (or a nominal cell when nothing is trapped), plus the frame
// programming time.
func (s *Simulator) StepTime() float64 {
	slowest := math.Inf(1)
	for _, p := range s.particles {
		if !p.Trapped {
			continue
		}
		reCM := p.CM(s.cfg.Env.Medium, s.cfg.Env.Frequency)
		if reCM >= 0 {
			continue // pDEP particle: not cage-limited
		}
		v := s.cageModel.MaxDragSpeed(p.Radius, reCM, s.cfg.Env.Viscosity)
		if v < slowest {
			slowest = v
		}
	}
	if math.IsInf(slowest, 1) {
		slowest = s.cageModel.MaxDragSpeed(10*units.Micron, -0.4, s.cfg.Env.Viscosity)
	}
	v := slowest * s.cfg.SafetyFactor
	return s.cfg.Array.Pitch/v + s.cfg.Array.FrameProgramTime()
}

// ExecutePlan replays a routed plan step by step: each step programs one
// frame and advances the clock by StepTime. Trapped particles follow
// their cages; untrapped particles diffuse and settle. The plan must be
// solved. Plans carry provenance (route.Plan.Planner): executed moves
// are attributed to the producing planner in the event log and in the
// die's PlanStats counters.
func (s *Simulator) ExecutePlan(plan *route.Plan) error {
	if plan == nil || !plan.Solved {
		return errors.New("chip: refusing to execute an unsolved plan")
	}
	stepTime := s.StepTime()
	for t := 0; t < plan.Makespan; t++ {
		moves := plan.MovesAt(t)
		if len(moves) == 0 {
			s.clock += stepTime
			continue
		}
		if err := s.layout.ApplyMoves(moves); err != nil {
			return fmt.Errorf("chip: step %d: %w", t, err)
		}
		if err := s.programLayout(); err != nil {
			return err
		}
		// Trapped particles track their cages; the per-particle
		// levitation solve parallelizes. Iterate moves in sorted ID
		// order so the moved list never inherits map iteration order.
		ids := make([]int, 0, len(moves))
		for id := range moves {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		moved := make([]*particle.Particle, 0, len(ids))
		for _, id := range ids {
			if p, ok := s.particles[id]; ok && p.Trapped {
				if c, ok := s.layout.Position(id); ok {
					p.Cage = c
					moved = append(moved, p)
				}
			}
		}
		parallel.For(s.workers(), len(moved), func(i int) {
			s.snapToCage(moved[i])
		})
		// Untrapped particles drift.
		s.driftUntrapped(stepTime)
		s.clock += stepTime - s.cfg.Array.FrameProgramTime()
		s.recordTraces()
	}
	// Provenance hook: record which planner produced the routed moves.
	if plan.Planner != "" {
		s.recordPlanExec(plan.Planner, plan.Makespan, plan.TotalMoves)
		s.logf("executed plan (%s): %d steps, %d moves", plan.Planner, plan.Makespan, plan.TotalMoves)
	} else {
		s.logf("executed plan: %d steps, %d moves", plan.Makespan, plan.TotalMoves)
	}
	s.emit(stream.Event{Type: stream.PlanExecuted, Plan: &stream.PlanInfo{
		Planner: plan.Planner, Makespan: plan.Makespan, Moves: plan.TotalMoves,
	}})
	return nil
}

func (s *Simulator) driftUntrapped(dt float64) {
	side := s.cfg.Array.Pitch * float64(s.cfg.Array.Cols)
	depth := s.cfg.Array.Pitch * float64(s.cfg.Array.Rows)
	parts := s.sortedParticles()
	parallel.For(s.workers(), len(parts), func(idx int) {
		p := parts[idx]
		if p.Trapped {
			return
		}
		w := p.Weight(s.cfg.Env.MediumDensity)
		particle.Step(p, geom.V3(0, 0, -w), dt, s.cfg.Env, s.noise[p.ID])
		particle.ClampToChamber(p, 0, 0, side, depth, s.chamber.Height)
	})
}

// Release frees the particle from its cage (pattern reverts to
// background at that site).
func (s *Simulator) Release(id int) error {
	p, ok := s.particles[id]
	if !ok {
		return fmt.Errorf("chip: unknown particle %d", id)
	}
	if !p.Trapped {
		return fmt.Errorf("chip: particle %d is not trapped", id)
	}
	if err := s.layout.Remove(id); err != nil {
		return err
	}
	p.Trapped = false
	return s.programLayout()
}

// Detection is the sensing result for one cage site.
type Detection struct {
	Cage     geom.Cell `json:"cage"`
	ID       int       `json:"id"`
	Occupied bool      `json:"occupied"`
	// Detected is the sensor's verdict (subject to noise).
	Detected bool `json:"detected"`
	// SNR is the single-site signal-to-noise at the used averaging.
	SNR float64 `json:"snr"`
}

// ScanResult is one full-array capacitive scan.
type ScanResult struct {
	Detections []Detection `json:"detections"`
	// ScanTime is the wall-clock cost of the scan.
	ScanTime float64 `json:"scan_time"`
	// Averaging is the per-pixel sample count used.
	Averaging int `json:"averaging"`
	// Errors counts wrong verdicts (misses + false alarms).
	Errors int `json:"errors"`
}

// Scan reads every cage site with the given averaging depth and
// stochastic noise: the detector thresholds signal+noise at half the
// expected cell signal.
func (s *Simulator) Scan(nAvg int) (*ScanResult, error) {
	scanTime, err := s.cfg.Sensor.ArrayScanTime(s.cfg.Array.Cols, s.cfg.Array.Rows, nAvg, s.cfg.SensorParallelism)
	if err != nil {
		return nil, err
	}
	res := &ScanResult{ScanTime: scanTime, Averaging: nAvg}
	refSignal := s.cfg.Sensor.SignalVoltage(10 * units.Micron)
	threshold := refSignal / 2
	sigma := s.cfg.Sensor.NoiseRMS(nAvg)
	ids := s.layout.IDs() // ascending — deterministic detection order
	// Every site draws its noise from a substream keyed by (scan number,
	// site ID), so per-site evaluation fans out across workers without
	// changing a single bit of the result.
	base := rng.Substream(s.cfg.Seed, streamScan+s.scans).Uint64()
	s.scans++
	dets := make([]Detection, len(ids))
	parallel.For(s.workers(), len(ids), func(i int) {
		id := ids[i]
		c, _ := s.layout.Position(id)
		p, haveParticle := s.particles[id]
		occupied := haveParticle && p.Trapped
		signal := 0.0
		if occupied {
			signal = s.cfg.Sensor.SignalVoltage(p.Radius)
		}
		measured := signal + sigma*rng.Substream(base, uint64(id)).StdNormal()
		dets[i] = Detection{
			Cage:     c,
			ID:       id,
			Occupied: occupied,
			Detected: measured > threshold,
			SNR:      signal / sigma,
		}
	})
	res.Detections = dets
	for i := range dets {
		if dets[i].Detected != dets[i].Occupied {
			res.Errors++
		}
	}
	s.clock += scanTime
	s.logf("scan (%dx avg): %d sites, %d errors, %s",
		nAvg, len(res.Detections), res.Errors, units.FormatDuration(scanTime))
	s.emitScanChunks(int(s.scans-1), nAvg, dets)
	return res, nil
}

// emitScanChunks streams a scan's detection table to the sink in
// batches of stream.ChunkRows rows — the "rows as they land" surface of
// a long multi-scan assay. Chunk order follows the deterministic site
// order of the table, so the chunked stream is as reproducible as the
// table itself.
func (s *Simulator) emitScanChunks(scan, nAvg int, dets []Detection) {
	if s.sink == nil || len(dets) == 0 {
		return
	}
	batches := (len(dets) + stream.ChunkRows - 1) / stream.ChunkRows
	for b := 0; b < batches; b++ {
		lo := b * stream.ChunkRows
		hi := lo + stream.ChunkRows
		if hi > len(dets) {
			hi = len(dets)
		}
		rows := make([]stream.Detection, hi-lo)
		for i, d := range dets[lo:hi] {
			rows[i] = stream.Detection{
				Col: d.Cage.Col, Row: d.Cage.Row, ID: d.ID,
				Occupied: d.Occupied, Detected: d.Detected, SNR: d.SNR,
			}
		}
		s.emit(stream.Event{Type: stream.ScanRows, Scan: &stream.ScanChunk{
			Scan: scan, Batch: b, Batches: batches, Averaging: nAvg, Rows: rows,
		}})
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
