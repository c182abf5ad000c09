// Benchmarks: one sub-benchmark per reproduced paper artifact under
// BenchmarkExperiments (`biochipbench list` maps experiment IDs to
// artifacts), plus micro-benchmarks of the core kernels and layers. Run
// with:
//
//	go test -bench=. -benchmem
package biochip

import (
	"errors"
	"fmt"
	"testing"

	"biochip/internal/assay"
	"biochip/internal/cage"
	"biochip/internal/chip"
	"biochip/internal/dep"
	"biochip/internal/electrode"
	"biochip/internal/experiments"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/route"
	"biochip/internal/sensor"
	"biochip/internal/stream"
	"biochip/internal/units"
)

// BenchmarkExperiments runs each registered experiment at Quick scale,
// one sub-benchmark per registry ID; time one with
// -bench '^BenchmarkExperiments$/^e11$'.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl, err := e.Run(experiments.Quick)
				if err != nil {
					b.Fatal(err)
				}
				if tbl.NumRows() == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// Core kernel micro-benchmarks.

// BenchmarkFrameProgram measures programming one paper-scale frame into
// the array model (102,400 electrodes).
func BenchmarkFrameProgram(b *testing.B) {
	cfg := electrode.DefaultConfig()
	arr, err := electrode.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := cage.GridLayout(cfg.Cols, cfg.Rows, 20000, cage.MinSeparation)
	if err != nil {
		b.Fatal(err)
	}
	f := layout.Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := arr.Program(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCageCompile measures compiling a 20,000-cage layout to a frame
// — the paper's "tens of thousands of cages" at full array scale.
func BenchmarkCageCompile(b *testing.B) {
	layout, err := cage.GridLayout(320, 320, 20000, cage.MinSeparation)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := layout.Compile()
		if f.Cols() != 320 {
			b.Fatal("bad frame")
		}
	}
}

// BenchmarkCMFactor measures the shelled-cell Clausius-Mossotti kernel.
func BenchmarkCMFactor(b *testing.B) {
	cell := dep.Cell20um()
	m := dep.LowConductivityBuffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = dep.CMFactorShelled(cell, m, 1e6)
	}
}

// BenchmarkLangevinStep measures one overdamped particle step.
func BenchmarkLangevinStep(b *testing.B) {
	k := particle.ViableCell()
	p := particle.Particle{ID: 0, Kind: &k, Radius: 10 * units.Micron}
	env := particle.DefaultEnvironment()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		particle.Step(&p, geom.V3(1e-12, 0, -1e-12), 1e-3, env, nil)
	}
}

// BenchmarkRoutePrioritized64 measures planning 64 agents on a 128×128
// grid with the production planner.
func BenchmarkRoutePrioritized64(b *testing.B) {
	prob, err := route.RandomProblem(128, 128, 64, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := (route.Prioritized{}).Plan(prob)
		if err != nil {
			b.Fatal(err)
		}
		if !plan.Solved {
			b.Fatal("unsolved")
		}
	}
}

// BenchmarkRouteGreedy64 is the greedy baseline on the same instance.
func BenchmarkRouteGreedy64(b *testing.B) {
	prob, err := route.RandomProblem(128, 128, 64, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (route.Greedy{}).Plan(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatherRoute32 is the in-process shape of the assaybench
// gather-route workload: one 32×32 die configured as assayd builds it
// from -cols/-rows (row-parallel readout, serial per-die loops) and,
// per iteration, a Reset plus the routed gather program: 9–11 viable
// cells loaded, settled, captured, gathered at (1,1) by the production
// planner, scanned and released, with events streamed to a no-op sink.
// Seeds cycle through 1–64. Route planning is most of an iteration.
func BenchmarkGatherRoute32(b *testing.B) {
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = 32, 32
	cfg.SensorParallelism = 32
	cfg.Parallelism = 1
	sim, err := chip.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const seeds = 64
	progs := make([]assay.Program, seeds)
	for i := range progs {
		progs[i] = assay.Program{Name: "gather-route", Ops: []assay.Op{
			assay.Load{Kind: particle.ViableCell(), Count: 9 + i%3},
			assay.Settle{},
			assay.Capture{},
			assay.Gather{Anchor: geom.C(1, 1)},
			assay.Scan{Averaging: []int{8, 16}[i%2]},
			assay.ReleaseAll{},
		}}
	}
	sink := func(stream.Event) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Reset(uint64(i%seeds + 1)); err != nil {
			b.Fatal(err)
		}
		if _, err := assay.ExecuteOnStream(sim, progs[i%seeds], sink); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlannerLocal64 measures one planner on the standard 64-agent
// low-congestion instance at paper-scale (320×320, local traffic) — the
// partitioning regime, one benchmark per planner family.
func benchPlannerLocal64(b *testing.B, name string) {
	b.Helper()
	prob, err := route.LocalProblem(320, 320, 64, 6, 7)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := route.PlannerByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Plan(prob); err != nil {
			var re *route.RoundsExhaustedError
			if !errors.As(err, &re) {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRouteGreedyLocal64(b *testing.B)      { benchPlannerLocal64(b, "greedy") }
func BenchmarkRouteWindowedLocal64(b *testing.B)    { benchPlannerLocal64(b, "windowed") }
func BenchmarkRoutePrioritizedLocal64(b *testing.B) { benchPlannerLocal64(b, "prioritized") }
func BenchmarkRoutePartitionedLocal64(b *testing.B) { benchPlannerLocal64(b, "partitioned") }

// BenchmarkRoutePartitionedSerial64 pins the partitioned planner at
// parallelism 1: the gap to BenchmarkRoutePartitionedLocal64 is the
// cluster fan-out, the gap to prioritized is the confined-search win.
func BenchmarkRoutePartitionedSerial64(b *testing.B) {
	prob, err := route.LocalProblem(320, 320, 64, 6, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pl, err := (route.Partitioned{Parallelism: 1}).Plan(prob); err != nil || !pl.Solved {
			b.Fatalf("unsolved (%v)", err)
		}
	}
}

// BenchmarkSensorScan measures a full-array capacitive scan-time model
// plus per-site SNR evaluation.
func BenchmarkSensorScan(b *testing.B) {
	s := sensor.DefaultCapacitive()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.ArrayScanTime(320, 320, 16, 320); err != nil {
			b.Fatal(err)
		}
		_ = s.SNR(10*units.Micron, 16)
	}
}

// benchCaptureAll measures settle+capture of a 200-cell sample on a
// 128×128 platform at the given engine parallelism (0 = GOMAXPROCS).
func benchCaptureAll(b *testing.B, parallelism int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := chip.DefaultConfig()
		cfg.Array.Cols, cfg.Array.Rows = 128, 128
		cfg.SensorParallelism = 128
		cfg.Seed = uint64(i + 1)
		cfg.Parallelism = parallelism
		sim, err := chip.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		kind := particle.ViableCell()
		if _, err := sim.Load(&kind, 200); err != nil {
			b.Fatal(err)
		}
		sim.Settle(sim.Chamber().Height / (5 * units.Micron))
		if _, _, err := sim.CaptureAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelease measures the release op's layer: about 200 captured
// cages freed one at a time, each release one frame program. Cells are
// loaded and settled once; each iteration re-captures them outside the
// timer (released cells stay where their cages held them) and times the
// releases. 96x96 is the benchmark's scan-stream die, 320x320 the
// default paper-scale die: a release reprograms only the electrodes it
// changes, so ns/release must not grow with array area. The untimed
// re-capture dominates wall time; use -benchtime Nx for a quick run.
func BenchmarkRelease(b *testing.B) {
	for _, cols := range []int{96, 320} {
		b.Run(fmt.Sprintf("%dx%d", cols, cols), func(b *testing.B) {
			cfg := chip.DefaultConfig()
			cfg.Array.Cols, cfg.Array.Rows = cols, cols
			cfg.SensorParallelism = cols
			cfg.Parallelism = 1
			cfg.Seed = 9
			sim, err := chip.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			kind := particle.ViableCell()
			if _, err := sim.Load(&kind, 200); err != nil {
				b.Fatal(err)
			}
			sim.Settle(sim.Chamber().Height / (5 * units.Micron))
			released := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, _, err := sim.CaptureAll(); err != nil {
					b.Fatal(err)
				}
				ids := sim.Layout().IDs()
				if len(ids) < 150 {
					b.Fatalf("only %d cages captured", len(ids))
				}
				b.StartTimer()
				for _, id := range ids {
					if err := sim.Release(id); err != nil {
						b.Fatal(err)
					}
				}
				released += len(ids)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(released), "ns/release")
		})
	}
}

// BenchmarkCaptureAll runs the capture pipeline on the full parallel
// engine (all cores); BenchmarkCaptureAllSerial is the degree-1 baseline
// — both produce bit-identical simulations for the same seed.
func BenchmarkCaptureAll(b *testing.B)       { benchCaptureAll(b, 0) }
func BenchmarkCaptureAllSerial(b *testing.B) { benchCaptureAll(b, 1) }

// benchRunAll measures the whole 29-experiment evaluation campaign at a
// given worker fan-out — the biochipbench hot path.
func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.RunAll(experiments.Quick, workers) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkExperimentsRunAll(b *testing.B)       { benchRunAll(b, 0) }
func BenchmarkExperimentsRunAllSerial(b *testing.B) { benchRunAll(b, 1) }
