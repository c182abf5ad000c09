package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/stream"
	"biochip/internal/table"
)

// E14StreamingOverhead measures the cost of the live event surface
// (internal/stream) on the workload it exists for: a long multi-scan
// assay whose operator wants to watch scan tables land instead of
// waiting for the final report. Three configurations run the same
// seeded program on one die: the un-instrumented baseline (nil sink,
// the plain ExecuteOn path), streaming into a ring with no subscriber,
// and streaming with a live subscriber draining the ring concurrently.
// Instrumentation is meant to be cheap — every event is built only
// when a sink is attached, publication never blocks on consumers — and
// the reports must stay bit-identical. Each repetition runs the three
// configurations back to back, so host drift hits all three alike; the
// table reports each one's median wall time and its min–max over the
// repetitions, and the overhead of the medians.
func E14StreamingOverhead(scale Scale) (*table.Table, error) {
	side, cells, rounds, reps := 48, 12, 4, 7
	if scale == Quick {
		side, cells, rounds, reps = 32, 6, 2, 3
	}
	cfg := squareDie(side)
	cfg.Seed = seedBase(14)

	// Long multi-scan assay: alternate gathers between two anchors with
	// a scan after each, so every round routes real motion and streams a
	// fresh scan table.
	ops := []assay.Op{
		assay.Load{Kind: particle.ViableCell(), Count: cells},
		assay.Settle{},
		assay.Capture{},
	}
	far := side - 1 - 3*cells/2
	if far < 4 {
		far = 4
	}
	for r := 0; r < rounds; r++ {
		anchor := geom.C(1, 1)
		if r%2 == 1 {
			anchor = geom.C(far, far)
		}
		ops = append(ops, assay.Gather{Anchor: anchor}, assay.Scan{Averaging: 8})
	}
	ops = append(ops, assay.ReleaseAll{})
	pr := assay.Program{Name: "stream-overhead", Ops: ops}

	sim, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}

	type variant struct {
		name string
		run  func() (*assay.Report, int, error)
	}
	variants := []variant{
		{"baseline (no sink)", func() (*assay.Report, int, error) {
			rep, err := assay.ExecuteOn(sim, pr)
			return rep, 0, err
		}},
		{"streaming, no subscriber", func() (*assay.Report, int, error) {
			ring := stream.NewRing()
			rep, err := assay.ExecuteOnStream(sim, pr, ring.Sink())
			ring.Close()
			return rep, int(ring.Last()), err
		}},
		{"streaming + live subscriber", func() (*assay.Report, int, error) {
			ring := stream.NewRing()
			sub := ring.Subscribe(0)
			consumed := make(chan int)
			go func() {
				n := 0
				for {
					if _, ok := sub.Next(nil); !ok {
						consumed <- n
						return
					}
					n++
				}
			}()
			rep, err := assay.ExecuteOnStream(sim, pr, ring.Sink())
			ring.Close()
			n := <-consumed
			sub.Cancel()
			return rep, n, err
		}},
	}

	walls := make([][]float64, len(variants))
	events := make([]int, len(variants))
	same := []bool{true, true, true}
	var baseRep string
	for rep := 0; rep < reps; rep++ {
		for i, v := range variants {
			if err := sim.Reset(cfg.Seed); err != nil {
				return nil, err
			}
			start := time.Now()
			report, n, err := v.run()
			elapsed := time.Since(start).Seconds()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", v.name, err)
			}
			walls[i] = append(walls[i], elapsed)
			events[i] = n
			if repStr := fmt.Sprintf("%+v", *report); rep == 0 && i == 0 {
				baseRep = repStr
			} else {
				same[i] = same[i] && repStr == baseRep
			}
		}
	}

	t := table.New(
		fmt.Sprintf("E14 — streaming overhead: %d-round gather+scan assay on a %d×%d die, %d cells, median of %d interleaved runs, %d-core host",
			rounds, side, side, cells, reps, runtime.GOMAXPROCS(0)),
		"configuration", "wall ms", "min–max ms", "events", "overhead", "report identical")
	base, spread := median(walls[0]), 0.0
	for i, v := range variants {
		med, lo, hi := median(walls[i]), slices.Min(walls[i]), slices.Max(walls[i])
		spread = max(spread, (hi-lo)/med)
		overhead, identical := "—", "—"
		if i > 0 {
			overhead = fmt.Sprintf("%+.1f%%", 100*(med/base-1))
			identical = "yes"
			if !same[i] {
				identical = "NO"
			}
		}
		t.AddRow(v.name, fmt.Sprintf("%.1f", 1000*med), fmt.Sprintf("%.1f–%.1f", 1000*lo, 1000*hi),
			fmt.Sprintf("%d", events[i]), overhead, identical)
	}
	t.Note("shape: events are built only when a sink is attached and Ring.Publish never blocks on subscribers, and the reports must be bit-identical. "+
		"The overhead compares medians; one configuration's runs spread over up to %.0f%% of its median here, so an overhead inside that spread is unresolved", 100*spread)
	return t, nil
}

// median returns the median of xs without reordering xs.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
