// Package assay provides the protocol level of the platform: an assay is
// a sequence of high-level operations (load a sample, let it settle,
// capture, gather cells into a region, scan, release) that the compiler
// checks statically and the executor runs on a chip.Simulator, invoking
// the routing CAD for every motion step.
//
// This is the level a biologist user of the platform would script at;
// everything below (frames, cages, paths, physics) is generated.
package assay

import (
	"errors"
	"fmt"
	"time"

	"biochip/internal/cage"
	"biochip/internal/chip"
	"biochip/internal/fab"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/route"
	"biochip/internal/stream"
	"biochip/internal/units"
)

// Op is one assay operation.
type Op interface {
	// Describe returns a human-readable summary.
	Describe() string
	isOp()
}

// Load introduces a particle population.
type Load struct {
	Kind  particle.Kind
	Count int
}

// Describe implements Op.
func (l Load) Describe() string { return fmt.Sprintf("load %d × %s", l.Count, l.Kind.Name) }
func (Load) isOp()              {}

// Settle waits for sedimentation.
type Settle struct {
	// Duration in seconds; 0 means "auto": chamber height over a
	// conservative settling speed.
	Duration float64
}

// Describe implements Op.
func (s Settle) Describe() string {
	if s.Duration == 0 {
		return "settle (auto)"
	}
	return "settle " + units.FormatDuration(s.Duration)
}
func (Settle) isOp() {}

// Capture forms cages and traps everything in the capture zone.
type Capture struct{}

// Describe implements Op.
func (Capture) Describe() string { return "capture all" }
func (Capture) isOp()            {}

// Gather routes every trapped particle into a packed block anchored at
// the given interior corner cell (row-major lattice at MinSeparation).
type Gather struct {
	Anchor geom.Cell
	// Planner names the routing planner (route.PlannerByName); ""
	// selects the production default, "prioritized".
	Planner string
}

// Describe implements Op.
func (g Gather) Describe() string {
	if g.Planner != "" {
		return fmt.Sprintf("gather at %v (%s)", g.Anchor, g.Planner)
	}
	return fmt.Sprintf("gather at %v", g.Anchor)
}
func (Gather) isOp() {}

// MoveTarget sends one trapped cage (by particle ID) to a goal cell.
type MoveTarget struct {
	ID   int
	Goal geom.Cell
}

// Move routes an explicit set of trapped cages to explicit goal cells
// with a named planner — the raw interface to the routing CAD, where
// Gather is the packaged "collect everything" pattern. Cages not listed
// stay parked and are treated as fixed obstacles. Every listed agent
// must be trapped when the op executes.
type Move struct {
	// Planner names the routing planner (route.PlannerByName); ""
	// selects "prioritized".
	Planner string
	// Agents lists the cages to move and where to.
	Agents []MoveTarget
}

// Describe implements Op.
func (m Move) Describe() string {
	planner := m.Planner
	if planner == "" {
		planner = "prioritized"
	}
	return fmt.Sprintf("move %d cages (%s)", len(m.Agents), planner)
}
func (Move) isOp() {}

// Scan reads all cage sites capacitively.
type Scan struct {
	Averaging int
}

// Describe implements Op.
func (s Scan) Describe() string { return fmt.Sprintf("scan (%dx averaging)", s.Averaging) }
func (Scan) isOp()              {}

// ReleaseAll frees every trapped particle.
type ReleaseAll struct{}

// Describe implements Op.
func (ReleaseAll) Describe() string { return "release all" }
func (ReleaseAll) isOp()            {}

// Probe switches the DEP drive to the given frequency, ejecting trapped
// particles that respond with positive DEP there (label-free selection,
// e.g. viability sorting at a frequency between the two populations'
// crossovers).
type Probe struct {
	Frequency float64
}

// Describe implements Op.
func (p Probe) Describe() string {
	return fmt.Sprintf("DEP probe @ %s", units.Format(p.Frequency, "Hz"))
}
func (Probe) isOp() {}

// Wash exchanges chamber volumes through the fluidic package, removing
// untrapped particles while caged ones hold — the isolation step of
// rare-cell workflows. Pressure defaults to a cell-safe 200 Pa when 0.
type Wash struct {
	// Volumes is the number of chamber volumes exchanged (≥ 1 typical).
	Volumes float64
	// Pressure is the drive pressure in Pa; 0 selects 200 Pa.
	Pressure float64
}

// Describe implements Op.
func (w Wash) Describe() string {
	return fmt.Sprintf("wash %.1f chamber volumes", w.Volumes)
}
func (Wash) isOp() {}

// washDefaultPressure is the cell-safe default drive (2 mbar).
const washDefaultPressure = 200.0

// Program is an ordered assay.
type Program struct {
	Name string
	Ops  []Op
	// Requirements is the optional explicit placement-requirements
	// block ("requirements" on the wire). When set, Check enforces it
	// against the die configuration and the heterogeneous service uses
	// it for profile placement instead of InferRequirements.
	Requirements *Requirements
}

// MaxOps bounds a program's operation count. A job's event ring holds
// its whole event stream in memory until its finish record is in the
// log (for as long as the job record lives, if that append fails), and
// every operation adds two events to that stream, a scan one more per
// stream.ChunkRows sites, so the op count bounds it. The largest
// program in the examples, the docs and the evaluation suite, E14's
// "stream-overhead" at full scale, has 12.
const MaxOps = 256

// OpCountError is returned by CheckOps and Check for a program with
// more than MaxOps operations.
type OpCountError struct {
	// Ops is the program's operation count.
	Ops int
}

// Error implements error.
func (e *OpCountError) Error() string {
	return fmt.Sprintf("assay: %d ops exceed the limit of %d", e.Ops, MaxOps)
}

// CheckOps validates everything about the program that does not depend
// on a die configuration: the op count (MaxOps), operation ordering
// (capture before gather/scan/release), positive loads and valid
// particle kinds, known planner names, and move-goal
// uniqueness/separation. A program that
// fails CheckOps is malformed on every die; one that passes may still
// fail Check against a particular (too small) configuration — the
// distinction the heterogeneous service uses to tell "bad program"
// (reject outright) from "no compatible profile" (typed 422).
func (pr Program) CheckOps() error { return pr.check(nil) }

// Check statically validates the program against a platform config:
// everything CheckOps covers, plus load sizes against cage capacity,
// gather block fit, move goals inside the interior, and the explicit
// Requirements block (when present).
func (pr Program) Check(cfg chip.Config) error {
	return pr.check(&cfg)
}

// check is the shared walk behind CheckOps and Check; cfg == nil skips
// every configuration-dependent rule.
func (pr Program) check(cfg *chip.Config) error {
	if len(pr.Ops) == 0 {
		return errors.New("assay: empty program")
	}
	if len(pr.Ops) > MaxOps {
		return &OpCountError{Ops: len(pr.Ops)}
	}
	capacity := 0
	if cfg != nil {
		if pr.Requirements != nil {
			if err := pr.Requirements.Check(*cfg); err != nil {
				return err
			}
		}
		capacity = cage.MaxCages(cfg.Array.Cols, cfg.Array.Rows, cage.MinSeparation)
	}
	loaded := 0
	captured := false
	for i, op := range pr.Ops {
		switch o := op.(type) {
		case Load:
			if o.Count <= 0 {
				return fmt.Errorf("assay: op %d: non-positive load", i)
			}
			if err := o.Kind.Validate(); err != nil {
				return fmt.Errorf("assay: op %d: %w", i, err)
			}
			loaded += o.Count
			if cfg != nil && loaded > capacity {
				return fmt.Errorf("assay: op %d: %d particles exceed %d cage capacity",
					i, loaded, capacity)
			}
		case Settle:
			if o.Duration < 0 {
				return fmt.Errorf("assay: op %d: negative settle", i)
			}
		case Capture:
			if loaded == 0 {
				return fmt.Errorf("assay: op %d: capture before any load", i)
			}
			captured = true
		case Gather:
			if !captured {
				return fmt.Errorf("assay: op %d: gather before capture", i)
			}
			// The interior starts at Margin on every die, so an anchor
			// below it is malformed config-independently.
			if o.Anchor.Col < cage.Margin || o.Anchor.Row < cage.Margin {
				return fmt.Errorf("assay: op %d: anchor %v outside any interior", i, o.Anchor)
			}
			if cfg != nil && !blockFits(*cfg, o.Anchor, loaded) {
				return fmt.Errorf("assay: op %d: gather block at %v cannot hold %d cages",
					i, o.Anchor, loaded)
			}
			if err := checkPlannerName(o.Planner); err != nil {
				return fmt.Errorf("assay: op %d: %w", i, err)
			}
		case Move:
			if !captured {
				return fmt.Errorf("assay: op %d: move before capture", i)
			}
			if len(o.Agents) == 0 {
				return fmt.Errorf("assay: op %d: move with no agents", i)
			}
			if err := checkPlannerName(o.Planner); err != nil {
				return fmt.Errorf("assay: op %d: %w", i, err)
			}
			seenID := make(map[int]bool, len(o.Agents))
			for k, tgt := range o.Agents {
				if tgt.ID < 0 {
					return fmt.Errorf("assay: op %d: negative agent id %d", i, tgt.ID)
				}
				if seenID[tgt.ID] {
					return fmt.Errorf("assay: op %d: duplicate agent id %d", i, tgt.ID)
				}
				seenID[tgt.ID] = true
				if tgt.Goal.Col < cage.Margin || tgt.Goal.Row < cage.Margin {
					return fmt.Errorf("assay: op %d: goal %v outside any interior", i, tgt.Goal)
				}
				if cfg != nil {
					interior := geom.GridRect(cfg.Array.Cols, cfg.Array.Rows).Inset(cage.Margin)
					if !interior.Contains(tgt.Goal) {
						return fmt.Errorf("assay: op %d: goal %v outside interior", i, tgt.Goal)
					}
				}
				for _, prev := range o.Agents[:k] {
					if tgt.Goal.Chebyshev(prev.Goal) < cage.MinSeparation {
						return fmt.Errorf("assay: op %d: goals %v and %v too close",
							i, prev.Goal, tgt.Goal)
					}
				}
			}
		case Scan:
			if !captured {
				return fmt.Errorf("assay: op %d: scan before capture", i)
			}
			if o.Averaging < 1 {
				return fmt.Errorf("assay: op %d: averaging must be ≥ 1", i)
			}
		case ReleaseAll:
			if !captured {
				return fmt.Errorf("assay: op %d: release before capture", i)
			}
			captured = false
		case Probe:
			if !captured {
				return fmt.Errorf("assay: op %d: probe before capture", i)
			}
			if o.Frequency <= 0 {
				return fmt.Errorf("assay: op %d: non-positive probe frequency", i)
			}
		case Wash:
			if o.Volumes <= 0 {
				return fmt.Errorf("assay: op %d: non-positive wash volumes", i)
			}
			if o.Pressure < 0 {
				return fmt.Errorf("assay: op %d: negative wash pressure", i)
			}
		default:
			return fmt.Errorf("assay: op %d: unknown operation %T", i, op)
		}
	}
	return nil
}

// checkPlannerName rejects unknown planner references at compile time
// ("" is the production default and always legal).
func checkPlannerName(name string) error {
	if name == "" {
		return nil
	}
	_, err := route.PlannerByName(name)
	return err
}

// PlannerFor resolves an op's planner name against the route registry
// ("" selects the production default, "prioritized"), wiring the engine
// parallelism into the partitioned meta-planner — the same knob that
// drives every other parallel loop of the die. Exported alongside
// PlanTimed so CLI tools share the executor's planner-wiring convention.
func PlannerFor(name string, cfg chip.Config) (route.Planner, error) {
	if name == "" {
		name = "prioritized"
	}
	pl, err := route.PlannerByName(name)
	if err != nil {
		return nil, err
	}
	if pa, ok := pl.(route.Partitioned); ok {
		pa.Parallelism = cfg.Parallelism
		pl = pa
	}
	return pl, nil
}

// PlanTimed runs the planner and reports the wall-clock planning cost to
// the die's provenance counters (chip.PlannerStat.PlanSeconds).
func PlanTimed(sim *chip.Simulator, pl route.Planner, prob route.Problem) (*route.Plan, error) {
	//detlint:allow walltime — PlanSeconds is provenance telemetry surfaced in /v1/stats, excluded from the bit-identity contract; the plan itself is seed-deterministic
	start := time.Now()
	plan, err := pl.Plan(prob)
	//detlint:allow walltime — same telemetry stamp as above
	sim.RecordPlanTime(pl.Name(), time.Since(start).Seconds())
	return plan, err
}

// blockFits reports whether a row-major MinSeparation lattice of n cells
// anchored at a fits the interior.
func blockFits(cfg chip.Config, a geom.Cell, n int) bool {
	interior := geom.GridRect(cfg.Array.Cols, cfg.Array.Rows).Inset(cage.Margin)
	if !interior.Contains(a) {
		return false
	}
	cells := gatherGoals(interior, a, n)
	return cells != nil
}

// gatherGoals returns n goal cells packed row-major from anchor, or nil.
func gatherGoals(interior geom.Rect, anchor geom.Cell, n int) []geom.Cell {
	out := make([]geom.Cell, 0, n)
	for row := anchor.Row; row < interior.Max.Row && len(out) < n; row += cage.MinSeparation {
		for col := anchor.Col; col < interior.Max.Col && len(out) < n; col += cage.MinSeparation {
			out = append(out, geom.C(col, row))
		}
	}
	if len(out) < n {
		return nil
	}
	return out
}

// ScanRecord is the full detection table of one Scan operation, in
// deterministic site order. Two executions of the same seeded program
// produce bit-identical records regardless of parallelism or which die
// of a shard pool ran them — this is the payload the determinism
// contract is checked against.
type ScanRecord struct {
	// Averaging is the per-pixel sample count used.
	Averaging int `json:"averaging"`
	// Time is the simulated wall-clock cost of the scan (s).
	Time float64 `json:"time"`
	// Detections lists every cage site's verdict.
	Detections []chip.Detection `json:"detections"`
}

// Report summarizes an executed assay.
type Report struct {
	Program string `json:"program"`
	// Duration is total assay wall-clock time (s).
	Duration float64 `json:"duration"`
	// Steps counts routed cage steps (makespan sum over Gather ops).
	Steps int `json:"steps"`
	// Trapped is the particle count after the last Capture.
	Trapped int `json:"trapped"`
	// ScanErrors accumulates detection errors over all scans.
	ScanErrors int `json:"scan_errors"`
	// ScanSites accumulates scanned sites over all scans.
	ScanSites int `json:"scan_sites"`
	// ProbeKept and ProbeEjected accumulate DEP-probe outcomes.
	ProbeKept    int `json:"probe_kept"`
	ProbeEjected int `json:"probe_ejected"`
	// Washed counts untrapped particles removed by Wash operations.
	Washed int `json:"washed"`
	// Scans holds one full detection table per Scan operation.
	Scans []ScanRecord `json:"scans,omitempty"`
	// Routings records one entry per routed operation (gather/move) with
	// the planner that produced the plan — the report-level provenance.
	// All fields are deterministic; wall-clock planning cost lives in
	// the die's chip.PlanStats counters instead (surfaced by the
	// service's /v1/stats), keeping reports bit-identical across shards.
	Routings []RoutingRecord `json:"routings,omitempty"`
	// Events is the simulator log.
	Events []string `json:"events,omitempty"`
}

// RoutingRecord is the provenance of one routed operation.
type RoutingRecord struct {
	// Op is the operation kind, "gather" or "move".
	Op string `json:"op"`
	// Planner is the full planner name that produced the plan.
	Planner string `json:"planner"`
	// Agents is the instance size (moved cages plus fixed obstacles).
	Agents int `json:"agents"`
	// Makespan and Moves summarize the executed plan.
	Makespan int `json:"makespan"`
	Moves    int `json:"moves"`
}

// Execute compiles and runs the program on a fresh simulator built from
// cfg. Routed ops (Gather, Move) use the planner they name, defaulting
// to Prioritized (the production planner).
func Execute(pr Program, cfg chip.Config) (*Report, error) {
	// Check first: an invalid program must fail fast, before the
	// (potentially calibrating) simulator construction.
	if err := pr.Check(cfg); err != nil {
		return nil, err
	}
	sim, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}
	return ExecuteOn(sim, pr)
}

// ExecuteOn runs the program on an existing simulator, which must be in
// its just-built (or just-Reset) state. It is the engine behind both
// Execute and the sharded assay service, where each die's simulator is
// reused across requests: Reset(seed) + ExecuteOn is bit-identical to
// Execute with cfg.Seed = seed.
func ExecuteOn(sim *chip.Simulator, pr Program) (*Report, error) {
	return ExecuteOnStream(sim, pr, nil)
}

// ExecuteOnStream is ExecuteOn with live progress events: while the
// program runs, the sink receives op.started/op.finished brackets
// around every operation plus the simulator's own events (scan-table
// row batches, executed-plan provenance — see chip.SetSink). A nil sink
// disables instrumentation entirely and is exactly ExecuteOn.
//
// The emitted sequence is part of the determinism contract: for a fixed
// seed the events (sequence, order, payloads — excluding the wall-clock
// stamp a stream.Ring adds) are bit-identical at any Parallelism and on
// any shard, because every emission happens on the executing goroutine
// at a deterministic point of the run.
func ExecuteOnStream(sim *chip.Simulator, pr Program, sink stream.Sink) (*Report, error) {
	cfg := sim.Config()
	if err := pr.Check(cfg); err != nil {
		return nil, err
	}
	if sink != nil {
		sim.SetSink(sink)
		defer sim.SetSink(nil)
	}
	emit := func(ev stream.Event) {
		if sink != nil {
			ev.T = sim.Clock()
			sink(ev)
		}
	}
	rep := &Report{Program: pr.Name}
	for i, op := range pr.Ops {
		emit(stream.Event{Type: stream.OpStarted,
			Op: &stream.OpInfo{Index: i, Kind: OpKind(op), Detail: op.Describe()}})
		detail := ""
		switch o := op.(type) {
		case Load:
			k := o.Kind
			if _, err := sim.Load(&k, o.Count); err != nil {
				return nil, fmt.Errorf("assay: op %d: %w", i, err)
			}
			detail = fmt.Sprintf("%d particles in chamber", sim.Particles())
		case Settle:
			d := o.Duration
			if d == 0 {
				d = sim.Chamber().Height / (5 * units.Micron) // conservative
			}
			frac := sim.Settle(d)
			detail = fmt.Sprintf("%.0f%% in capture zone", 100*frac)
		case Capture:
			cages, trapped, err := sim.CaptureAll()
			if err != nil {
				return nil, fmt.Errorf("assay: op %d: %w", i, err)
			}
			rep.Trapped = trapped
			detail = fmt.Sprintf("%d cages, %d trapped", cages, trapped)
		case Gather:
			routed := len(rep.Routings)
			if err := runGather(sim, o, rep); err != nil {
				return nil, fmt.Errorf("assay: op %d: %w", i, err)
			}
			detail = routingDetail(rep, routed)
		case Move:
			routed := len(rep.Routings)
			if err := runMove(sim, o, rep); err != nil {
				return nil, fmt.Errorf("assay: op %d: %w", i, err)
			}
			detail = routingDetail(rep, routed)
		case Scan:
			res, err := sim.Scan(o.Averaging)
			if err != nil {
				return nil, fmt.Errorf("assay: op %d: %w", i, err)
			}
			rep.ScanErrors += res.Errors
			rep.ScanSites += len(res.Detections)
			rep.Scans = append(rep.Scans, ScanRecord{
				Averaging:  res.Averaging,
				Time:       res.ScanTime,
				Detections: res.Detections,
			})
			detail = fmt.Sprintf("%d sites, %d errors", len(res.Detections), res.Errors)
		case ReleaseAll:
			released := 0
			for _, id := range sim.Layout().IDs() {
				if err := sim.Release(id); err != nil {
					return nil, fmt.Errorf("assay: op %d: %w", i, err)
				}
				released++
			}
			detail = fmt.Sprintf("%d released", released)
		case Probe:
			res, err := sim.ProbeDEPResponse(o.Frequency)
			if err != nil {
				return nil, fmt.Errorf("assay: op %d: %w", i, err)
			}
			rep.ProbeKept += len(res.Kept)
			rep.ProbeEjected += len(res.Lost)
			detail = fmt.Sprintf("%d kept, %d ejected", len(res.Kept), len(res.Lost))
		case Wash:
			pressure := o.Pressure
			if pressure == 0 {
				pressure = washDefaultPressure
			}
			res, err := sim.Flush(o.Volumes, pressure)
			if err != nil {
				return nil, fmt.Errorf("assay: op %d: %w", i, err)
			}
			rep.Washed += res.Removed
			detail = fmt.Sprintf("%d washed out", res.Removed)
		}
		emit(stream.Event{Type: stream.OpFinished,
			Op: &stream.OpInfo{Index: i, Kind: OpKind(op), Detail: detail}})
	}
	rep.Duration = sim.Clock()
	rep.Events = sim.Log()
	return rep, nil
}

// OpKind returns the operation's wire name — the same tag the JSON
// codec uses ("load", "settle", "capture", "gather", "move", "scan",
// "release", "probe", "wash") — so stream events and program documents
// speak one vocabulary.
func OpKind(op Op) string {
	switch op.(type) {
	case Load:
		return "load"
	case Settle:
		return "settle"
	case Capture:
		return "capture"
	case Gather:
		return "gather"
	case Move:
		return "move"
	case Scan:
		return "scan"
	case ReleaseAll:
		return "release"
	case Probe:
		return "probe"
	case Wash:
		return "wash"
	default:
		return fmt.Sprintf("%T", op)
	}
}

// routingDetail summarizes the routing record the op just appended (a
// no-op route — nothing trapped — appends none) for op.finished.
func routingDetail(rep *Report, before int) string {
	if len(rep.Routings) == before {
		return "nothing to route"
	}
	r := rep.Routings[len(rep.Routings)-1]
	return fmt.Sprintf("%s: makespan %d, %d moves", r.Planner, r.Makespan, r.Moves)
}

// GatherProblem builds the routing instance a Gather op executes: every
// trapped cage assigned to a cell of the packed block anchored at
// g.Anchor. Exported so CLI tools (cmd/biochipsim) can route the same
// workload through any planner without re-deriving the assignment.
func GatherProblem(sim *chip.Simulator, g Gather) (route.Problem, error) {
	ids := sim.Layout().IDs()
	if len(ids) == 0 {
		return route.Problem{}, nil
	}
	interior := sim.Layout().InteriorBounds()
	goals := gatherGoals(interior, g.Anchor, len(ids))
	if goals == nil {
		return route.Problem{}, fmt.Errorf("gather block at %v cannot hold %d cages", g.Anchor, len(ids))
	}
	// Stable assignment: sort ids, match greedily to nearest free goal
	// (simple assignment keeps routes short without full Hungarian).
	agents := make([]route.Agent, 0, len(ids))
	usedGoal := make([]bool, len(goals))
	sortInts(ids)
	for _, id := range ids {
		start, _ := sim.Layout().Position(id)
		best, bestD := -1, 1<<30
		for gi, goal := range goals {
			if usedGoal[gi] {
				continue
			}
			if d := start.Manhattan(goal); d < bestD {
				best, bestD = gi, d
			}
		}
		usedGoal[best] = true
		agents = append(agents, route.Agent{ID: id, Start: start, Goal: goals[best]})
	}
	return route.Problem{
		Cols: sim.Layout().Cols(), Rows: sim.Layout().Rows(), Agents: agents,
	}, nil
}

// runGather routes all trapped cages into the packed block.
func runGather(sim *chip.Simulator, g Gather, rep *Report) error {
	prob, err := GatherProblem(sim, g)
	if err != nil {
		return err
	}
	if len(prob.Agents) == 0 {
		return nil
	}
	return routeAndExecute(sim, g.Planner, "gather", prob, rep)
}

// runMove routes the listed cages to their goals; every unlisted
// trapped cage becomes a fixed obstacle (start == goal).
func runMove(sim *chip.Simulator, m Move, rep *Report) error {
	layout := sim.Layout()
	agents := make([]route.Agent, 0, layout.Len())
	listed := make(map[int]bool, len(m.Agents))
	for _, tgt := range m.Agents {
		start, ok := layout.Position(tgt.ID)
		if !ok {
			return fmt.Errorf("move: agent %d is not a trapped cage", tgt.ID)
		}
		listed[tgt.ID] = true
		agents = append(agents, route.Agent{ID: tgt.ID, Start: start, Goal: tgt.Goal})
	}
	parked := layout.IDs()
	sortInts(parked)
	for _, id := range parked {
		if listed[id] {
			continue
		}
		pos, _ := layout.Position(id)
		agents = append(agents, route.Agent{ID: id, Start: pos, Goal: pos})
	}
	prob := route.Problem{Cols: layout.Cols(), Rows: layout.Rows(), Agents: agents}
	return routeAndExecute(sim, m.Planner, "move", prob, rep)
}

// routeAndExecute plans a routing instance with the named planner,
// executes the plan and appends the provenance record.
func routeAndExecute(sim *chip.Simulator, plannerName, op string, prob route.Problem, rep *Report) error {
	pl, err := PlannerFor(plannerName, sim.Config())
	if err != nil {
		return err
	}
	plan, err := PlanTimed(sim, pl, prob)
	if err != nil {
		return err
	}
	if !plan.Solved {
		return fmt.Errorf("assay: %s routing unsolved", op)
	}
	if err := sim.ExecutePlan(plan); err != nil {
		return err
	}
	rep.Steps += plan.Makespan
	rep.Routings = append(rep.Routings, RoutingRecord{
		Op:       op,
		Planner:  plan.Planner,
		Agents:   len(prob.Agents),
		Makespan: plan.Makespan,
		Moves:    plan.TotalMoves,
	})
	return nil
}

// EstimateDuration predicts assay time without executing: settles and
// scans are taken at face value; gathers are estimated as the worst-case
// Manhattan distance from array corners to the anchor times the step
// time of a nominal cell.
func EstimateDuration(pr Program, cfg chip.Config) (float64, error) {
	if err := pr.Check(cfg); err != nil {
		return 0, err
	}
	sim, err := chip.New(cfg)
	if err != nil {
		return 0, err
	}
	total := 0.0
	stepTime := sim.StepTime()
	for _, op := range pr.Ops {
		switch o := op.(type) {
		case Settle:
			d := o.Duration
			if d == 0 {
				d = sim.Chamber().Height / (5 * units.Micron)
			}
			total += d
		case Capture:
			total += cfg.Array.FrameProgramTime()
		case Gather, Move:
			// Cages move synchronously: the estimate is the longest
			// goal distance an agent could have to cover.
			diag := cfg.Array.Cols + cfg.Array.Rows
			total += float64(diag) * stepTime
		case Scan:
			t, err := cfg.Sensor.ArrayScanTime(cfg.Array.Cols, cfg.Array.Rows, o.Averaging, cfg.SensorParallelism)
			if err != nil {
				return 0, err
			}
			total += t
		case Probe:
			// Two frame programs plus an ejection dwell of a few
			// seconds (bounded the same way the simulator bounds it).
			total += 2*cfg.Array.FrameProgramTime() + 10
		case Wash:
			pressure := o.Pressure
			if pressure == 0 {
				pressure = washDefaultPressure
			}
			pkg, err := fab.GeneratePackage(fab.DefaultPackageSpec())
			if err != nil {
				return 0, err
			}
			ft, err := pkg.FillTime(pressure, cfg.Env.Viscosity)
			if err != nil {
				return 0, err
			}
			total += o.Volumes * ft
		}
	}
	return total, nil
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
