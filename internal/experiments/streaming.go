package experiments

import (
	"fmt"
	"runtime"
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
// exactly the PR 4 execution path), streaming into a bounded ring with
// no subscriber, and streaming with a live subscriber draining the ring
// concurrently. The contract is that instrumentation is cheap — every
// event is built only when a sink is attached, publication never blocks
// on consumers — so the streamed runs must stay within 5% of the
// baseline wall-clock while the reports stay bit-identical.
func E14StreamingOverhead(scale Scale) (*table.Table, error) {
	side, cells, rounds, reps := 48, 12, 4, 3
	if scale == Quick {
		side, cells, rounds, reps = 32, 6, 2, 2
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
			ring := stream.NewRing(0)
			rep, err := assay.ExecuteOnStream(sim, pr, ring.Sink())
			ring.Close()
			return rep, int(ring.Last()), err
		}},
		{"streaming + live subscriber", func() (*assay.Report, int, error) {
			ring := stream.NewRing(0)
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

	t := table.New(
		fmt.Sprintf("E14 — streaming overhead: %d-round gather+scan assay on a %d×%d die, %d cells, best of %d, %d-core host",
			rounds, side, side, cells, reps, runtime.GOMAXPROCS(0)),
		"configuration", "wall ms", "events", "overhead", "report identical")
	base := 0.0
	var baseRep string
	for _, v := range variants {
		best := 0.0
		events := 0
		var repStr string
		for rep := 0; rep < reps; rep++ {
			if err := sim.Reset(cfg.Seed); err != nil {
				return nil, err
			}
			start := time.Now()
			report, n, err := v.run()
			elapsed := time.Since(start).Seconds()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", v.name, err)
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
			events = n
			repStr = fmt.Sprintf("%+v", *report)
		}
		identical := "—"
		if base == 0 {
			base = best
			baseRep = repStr
		} else if repStr == baseRep {
			identical = "yes"
		} else {
			identical = "NO"
		}
		overhead := "1.00x"
		if base > 0 {
			overhead = fmt.Sprintf("%+.1f%%", 100*(best/base-1))
		}
		t.AddRow(v.name, fmt.Sprintf("%.1f", 1000*best), fmt.Sprintf("%d", events), overhead, identical)
	}
	t.Note("shape: events are built only when a sink is attached and Ring.Publish never blocks on subscribers, so both streamed rows must sit within 5%% of the baseline (noise-floor on loaded hosts) with bit-identical reports")
	return t, nil
}
