// Package biochip is a CAD and simulation framework for CMOS
// dielectrophoresis-array lab-on-a-chip platforms, reproducing the system
// described in "New Perspectives and Opportunities From the Wild West of
// Microelectronic Biochips" (Manaresi et al., DATE 2005).
//
// The platform it models programs voltage patterns onto an array of
// >100,000 electrodes to create tens of thousands of closed
// dielectrophoretic (DEP) cages in a ~4 µl sample drop. Each cage traps
// one cell in stable levitation; shifting the pattern moves the cage and
// drags the cell with it, and per-electrode capacitive or optical sensors
// detect particle presence. The framework covers:
//
//   - Platform simulation (NewSimulator): electrode-array timing, cage
//     physics calibrated by an electrostatic field solver, overdamped
//     particle dynamics, capacitive sensing with noise.
//   - Manipulation CAD (PlanRoutes): conflict-free concurrent routing of
//     many trapped cells across the cage grid.
//   - Assay programming (RunAssay): a high-level operation sequence
//     (load, settle, capture, gather, scan, release) compiled and
//     executed on the simulator.
//   - Sharded serving (NewAssayService): a pool of simulated dies behind
//     a work-stealing dispatcher and bounded queue, with per-request
//     seeds keeping sharded results bit-identical to serial replays
//     (cmd/assayd exposes it over HTTP).
//   - Design-space tools: technology-node selection (SelectNode — the
//     paper's "older generation technologies may best fit your purpose"),
//     fabrication-process economics (FabCatalog) and the Fig. 1 vs Fig. 2
//     design-flow Monte Carlo (CompareFlows).
//
// The subsystems live in internal packages; this package re-exports the
// supported API surface. Examples under examples/ and the experiment
// harness under cmd/biochipbench exercise it end to end.
package biochip

import (
	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/dep"
	"biochip/internal/designflow"
	"biochip/internal/fab"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/route"
	"biochip/internal/service"
	"biochip/internal/tech"
)

// Platform simulation.
type (
	// Config assembles a full platform (array, drop, medium, sensing).
	Config = chip.Config
	// Simulator is a live platform instance.
	Simulator = chip.Simulator
	// ScanResult is one full-array capacitive scan.
	ScanResult = chip.ScanResult
	// Detection is the sensing verdict for one cage site.
	Detection = chip.Detection
)

// DefaultConfig returns the paper-scale platform: 320×320 electrodes at
// 20 µm pitch under a 4 µl drop of low-conductivity buffer.
func DefaultConfig() Config { return chip.DefaultConfig() }

// NewSimulator builds and calibrates a platform simulator.
func NewSimulator(cfg Config) (*Simulator, error) { return chip.New(cfg) }

// Particles.
type (
	// ParticleKind describes a particle species (cells, beads).
	ParticleKind = particle.Kind
	// Particle is one physical particle instance.
	Particle = particle.Particle
	// Environment bundles the liquid conditions.
	Environment = particle.Environment
)

// ViableCell returns the canonical live 20 µm mammalian cell kind.
func ViableCell() ParticleKind { return particle.ViableCell() }

// NonViableCell returns the dead-cell kind (leaky membrane, shifted DEP
// response) used for viability sorting.
func NonViableCell() ParticleKind { return particle.NonViableCell() }

// PolystyreneBead10um returns a 10 µm calibration bead kind.
func PolystyreneBead10um() ParticleKind { return particle.PolystyreneBead10um() }

// Geometry.
type (
	// Cell is an integer electrode-grid coordinate.
	Cell = geom.Cell
	// Dir is a lattice direction (North/South/East/West/Stay).
	Dir = geom.Dir
)

// C constructs a grid coordinate.
func C(col, row int) Cell { return geom.C(col, row) }

// Routing CAD.
type (
	// RouteAgent is one cage to route (ID, start, goal).
	RouteAgent = route.Agent
	// RouteProblem is a multi-cage routing instance.
	RouteProblem = route.Problem
	// RoutePlan is a conflict-free concurrent motion plan.
	RoutePlan = route.Plan
	// Planner produces plans for routing problems.
	Planner = route.Planner
)

// NewPrioritizedPlanner returns the production router: cooperative
// space-time A* with priority ordering and restart-on-failure.
func NewPrioritizedPlanner() Planner { return route.Prioritized{} }

// NewGreedyPlanner returns the baseline router used for comparison.
func NewGreedyPlanner() Planner { return route.Greedy{} }

// PlanRoutes is shorthand: plan the problem with the production planner.
func PlanRoutes(p RouteProblem) (*RoutePlan, error) { return route.Prioritized{}.Plan(p) }

// CheckPlan verifies a plan keeps every pair of cages separated at every
// timestep.
func CheckPlan(p RouteProblem, pl *RoutePlan) error { return route.CheckPlan(p, pl) }

// CompactPlan post-optimizes a solved plan by removing conservative wait
// steps; returns the compacted plan and the number of waits removed.
func CompactPlan(p RouteProblem, pl *RoutePlan) (*RoutePlan, int) { return route.Compact(p, pl) }

// RefinePlan post-optimizes a solved plan by iterated best response:
// each agent is re-planned against all other paths held fixed. Returns
// the refined plan and the number of path improvements applied.
func RefinePlan(p RouteProblem, pl *RoutePlan, rounds int) (*RoutePlan, int) {
	return route.Refine(p, pl, rounds)
}

// NewWindowedPlanner returns the bounded-latency WHCA*-style planner
// (the on-line controller variant; incomplete on adversarial instances).
func NewWindowedPlanner() Planner { return route.Windowed{} }

// Assay programming.
type (
	// AssayProgram is an ordered sequence of assay operations.
	AssayProgram = assay.Program
	// AssayOp is one assay operation.
	AssayOp = assay.Op
	// AssayReport summarizes an executed assay.
	AssayReport = assay.Report
	// OpLoad introduces a particle population.
	OpLoad = assay.Load
	// OpSettle waits for sedimentation.
	OpSettle = assay.Settle
	// OpCapture forms cages and traps settled particles.
	OpCapture = assay.Capture
	// OpGather routes all trapped particles into a packed block.
	OpGather = assay.Gather
	// OpScan reads all cage sites capacitively.
	OpScan = assay.Scan
	// OpReleaseAll frees every trapped particle.
	OpReleaseAll = assay.ReleaseAll
	// OpProbe ejects particles with positive DEP response at a probe
	// frequency (label-free selection, e.g. viability sorting).
	OpProbe = assay.Probe
	// OpWash exchanges chamber volumes, flushing untrapped particles.
	OpWash = assay.Wash
)

// RunAssay checks and executes a program on a fresh simulator.
func RunAssay(pr AssayProgram, cfg Config) (*AssayReport, error) {
	return assay.Execute(pr, cfg)
}

// EstimateAssayDuration predicts assay time without executing it.
func EstimateAssayDuration(pr AssayProgram, cfg Config) (float64, error) {
	return assay.EstimateDuration(pr, cfg)
}

// Sharded assay service: many dies served as one long-running process
// (the engine behind cmd/assayd; see ARCHITECTURE.md).
type (
	// AssayService is a shard pool of simulators behind a work-stealing
	// dispatcher and a bounded submission queue. Requests carry seeds,
	// and sharded results are bit-identical to serial replays.
	AssayService = service.Service
	// ServiceConfig sizes an assay service (shards, queue depth, die).
	ServiceConfig = service.Config
	// SubmitRequest is one submission to an AssayService: a seed and
	// a program.
	SubmitRequest = service.SubmitRequest
	// AssayJob is one submitted request's lifecycle record.
	AssayJob = service.Job
	// ServiceStats is a point-in-time service snapshot.
	ServiceStats = service.Stats
)

// NewAssayService builds the shard pool and starts its executors; stop
// it with Close, which removes the temporary log a nil cfg.Store opens.
func NewAssayService(cfg ServiceConfig) (*AssayService, error) { return service.New(cfg) }

// Technology selection (paper consideration C1).
type (
	// TechNode is one CMOS technology generation.
	TechNode = tech.Node
	// TechRequirements is what a biochip asks of a node.
	TechRequirements = tech.Requirements
	// TechEvaluation scores one node against requirements.
	TechEvaluation = tech.Evaluation
)

// TechNodes returns the built-in node database, oldest first.
func TechNodes() []TechNode { return tech.Nodes() }

// DefaultTechRequirements matches the paper's platform (20 µm pitch,
// ≥3 V actuation, >100k electrodes).
func DefaultTechRequirements() TechRequirements { return tech.DefaultRequirements() }

// SelectNode returns the best feasible node for the requirements. For
// cell-sized electrodes it selects an older high-voltage node — the
// paper's first consideration, quantified.
func SelectNode(req TechRequirements) (TechEvaluation, error) { return tech.Select(req) }

// RankNodes returns all feasible nodes by descending figure of merit.
func RankNodes(req TechRequirements) []TechEvaluation { return tech.Rank(req) }

// Fabrication economics (paper §3).
type (
	// FabProcess describes one fabrication technology's economics.
	FabProcess = fab.Process
)

// FabCatalog returns the built-in processes: dry-film resist, PDMS soft
// lithography, glass wet etch, and CMOS respin.
func FabCatalog() []FabProcess { return fab.Catalog() }

// DryFilmResist returns the paper's §3 fluidic process: 2-3 day
// turnaround, masks for a few euros, setup in the tens of thousands.
func DryFilmResist() FabProcess { return fab.DryFilmResist() }

// Design-flow comparison (Figs 1 and 2).
type (
	// FlowProject parameterizes a design effort (flaws, model fidelity).
	FlowProject = designflow.Project
	// FlowKind selects simulate-first or build-and-test.
	FlowKind = designflow.Flow
	// FlowResult summarizes a Monte-Carlo campaign.
	FlowResult = designflow.MCResult
)

// Design-flow strategies.
const (
	// SimulateFirstFlow is the electronic flow of Fig. 1.
	SimulateFirstFlow = designflow.FlowSimulateFirst
	// BuildAndTestFlow is the fluidic flow of Fig. 2.
	BuildAndTestFlow = designflow.FlowBuildAndTest
	// BuildAndTestInsightFlow adds Fig. 2's simulation-for-insight.
	BuildAndTestInsightFlow = designflow.FlowBuildAndTestInsight
)

// ElectronicProject returns the canonical CMOS design effort.
func ElectronicProject() FlowProject { return designflow.ElectronicProject() }

// FluidicProject returns the canonical fluidic-packaging design effort.
func FluidicProject() FlowProject { return designflow.FluidicProject() }

// CompareFlows runs a Monte-Carlo campaign of the flow on the project
// with the given fabrication process.
func CompareFlows(f FlowKind, p FlowProject, proc FabProcess, runs int, seed uint64) (FlowResult, error) {
	return designflow.MonteCarlo(f, p, proc, runs, seed)
}

// DEP physics.
type (
	// CageSpec describes the geometry and drive of a DEP cage site.
	CageSpec = dep.CageSpec
	// CageModel is the calibrated reduced-order model of one cage.
	CageModel = dep.CageModel
	// Dielectric is a lossy dielectric material.
	Dielectric = dep.Dielectric
)

// NewCageModel calibrates a cage model by solving the vertical-slice
// electrostatic problem.
func NewCageModel(spec CageSpec) (*CageModel, error) { return dep.NewCageModel(spec) }

// DefaultCageSpec matches the paper's platform cage geometry.
func DefaultCageSpec() CageSpec { return dep.DefaultCageSpec() }
