package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"biochip/internal/assay"
	"biochip/internal/federation"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/service"
	"biochip/internal/table"
)

// e16Program returns one of three program shapes by batch index, so the
// federated batch mixes scan-heavy, motion-heavy and minimal jobs — the
// traffic a gateway actually sees, not a single repeated assay.
func e16Program(i, cells int) assay.Program {
	switch i % 3 {
	case 1:
		return assay.Program{
			Name: "fed-scan-heavy",
			Ops: []assay.Op{
				assay.Load{Kind: particle.ViableCell(), Count: cells},
				assay.Settle{},
				assay.Capture{},
				assay.Scan{Averaging: 16},
				assay.Scan{Averaging: 16},
				assay.ReleaseAll{},
			},
		}
	case 2:
		return assay.Program{
			Name: "fed-quick-count",
			Ops: []assay.Op{
				assay.Load{Kind: particle.ViableCell(), Count: (cells + 1) / 2},
				assay.Settle{},
				assay.Capture{},
				assay.Scan{Averaging: 2},
				assay.ReleaseAll{},
			},
		}
	default:
		return assay.Program{
			Name: "fed-capture-scan",
			Ops: []assay.Op{
				assay.Load{Kind: particle.ViableCell(), Count: cells},
				assay.Settle{},
				assay.Capture{},
				assay.Scan{Averaging: 8},
				assay.Gather{Anchor: geom.C(1, 1)},
				assay.Scan{Averaging: 8},
				assay.ReleaseAll{},
			},
		}
	}
}

// e16Params sizes the experiment: die side, cell count and batch size.
func e16Params(scale Scale) (side, cells, jobs int) {
	if scale == Quick {
		return 32, 5, 9
	}
	return 40, 8, 18
}

// e16Profile is the homogeneous member fleet: one die class per worker,
// so every program has a single eligible profile and the report bits
// cannot depend on which member (or shard) executes it.
func e16Profile(side int) []service.FleetProfileSpec {
	return []service.FleetProfileSpec{
		{Name: fmt.Sprintf("die%d", side), Shards: 1, Cols: side, Rows: side},
	}
}

// e16Reference runs the mixed batch on one plain in-process service —
// the single-node ground truth the federated runs must reproduce
// bit-for-bit.
func e16Reference(profiles []service.FleetProfileSpec, jobs, cells int) ([]json.RawMessage, error) {
	svc, err := service.New(service.FleetSpec{Profiles: profiles}.ServiceConfig())
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	ids := make([]string, jobs)
	for i := range ids {
		res, err := svc.Submit(service.SubmitRequest{Seed: seedBase(16) + uint64(i), Program: e16Program(i, cells)})
		if err != nil {
			return nil, err
		}
		ids[i] = res.ID
	}
	reports := make([]json.RawMessage, jobs)
	for i, id := range ids {
		j, err := svc.Wait(id)
		if err != nil {
			return nil, err
		}
		if j.Status != service.StatusDone {
			return nil, fmt.Errorf("experiments: reference job %s: %s (%s)", id, j.Status, j.Error)
		}
		reports[i] = j.Report
	}
	return reports, nil
}

// e16Point is one fleet size's measurement.
type e16Point struct {
	workers   int
	jobs      int
	elapsed   float64
	forwarded uint64
	identical bool
}

// e16Batch runs the mixed batch through a federation gateway fronting n
// in-process worker daemons, each a full assayd service behind a real
// HTTP listener on the loopback interface.
func e16Batch(n int, profiles []service.FleetProfileSpec, jobs, cells int) (e16Point, []json.RawMessage, error) {
	pt := e16Point{workers: n, jobs: jobs}
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	specs := make([]federation.MemberSpec, 0, n)
	for i := 0; i < n; i++ {
		svc, err := service.New(service.FleetSpec{Profiles: profiles}.ServiceConfig())
		if err != nil {
			return pt, nil, err
		}
		cleanup = append(cleanup, svc.Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return pt, nil, err
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(ln)
		cleanup = append(cleanup, func() { srv.Close() })
		specs = append(specs, federation.MemberSpec{
			Name:     fmt.Sprintf("w%d", i),
			Addr:     "http://" + ln.Addr().String(),
			Profiles: profiles,
		})
	}
	g, err := federation.New(federation.Config{Members: specs, PollInterval: 25 * time.Millisecond})
	if err != nil {
		return pt, nil, err
	}
	cleanup = append(cleanup, g.Close)

	start := time.Now()
	ids := make([]string, jobs)
	for i := range ids {
		res, err := g.Submit(service.SubmitRequest{Seed: seedBase(16) + uint64(i), Program: e16Program(i, cells)})
		if err != nil {
			return pt, nil, err
		}
		ids[i] = res.ID
	}
	reports := make([]json.RawMessage, jobs)
	for i, id := range ids {
		j, ok, err := g.WaitTimeout(id, 5*time.Minute)
		if err != nil || !ok {
			return pt, nil, fmt.Errorf("experiments: federated job %s: %v", id, err)
		}
		if j.Status != service.StatusDone {
			return pt, nil, fmt.Errorf("experiments: federated job %s: %s (%s)", id, j.Status, j.Error)
		}
		reports[i] = j.Report
	}
	pt.elapsed = time.Since(start).Seconds()
	pt.forwarded = g.Stats().Gateway.Forwarded
	return pt, reports, nil
}

// e16Scales is the fleet-size sweep.
var e16Scales = []int{1, 2, 4}

// e16Run measures the sweep and checks every federated report against
// the single-node reference.
func e16Run(scale Scale) ([]e16Point, error) {
	side, cells, jobs := e16Params(scale)
	profiles := e16Profile(side)
	ref, err := e16Reference(profiles, jobs, cells)
	if err != nil {
		return nil, err
	}
	pts := make([]e16Point, 0, len(e16Scales))
	for _, n := range e16Scales {
		pt, reports, err := e16Batch(n, profiles, jobs, cells)
		if err != nil {
			return nil, err
		}
		pt.identical = true
		for i := range ref {
			if !bytes.Equal(ref[i], reports[i]) {
				pt.identical = false
			}
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// E16Federation measures the federation gateway (internal/federation,
// the engine behind assayd -gateway): a mixed batch of seeded assay
// programs dispatched through one gateway over growing worker fleets.
// Two claims are on display. Scaling: members are independent daemons
// and the gateway never re-executes a job, so batch wall-clock falls
// with the fleet until the host saturates — the federated twin of e11's
// shard scaling. Transparency: every request carries its seed and the
// members are homogeneous, so which member runs a job is invisible in
// the result bits — each federated report must be bit-identical to the
// single-node run of the same batch.
func E16Federation(scale Scale) (*table.Table, error) {
	side, _, jobs := e16Params(scale)
	pts, err := e16Run(scale)
	if err != nil {
		return nil, err
	}
	t := table.New(
		fmt.Sprintf("E16 — federated gateway: %d-job mixed batch over worker fleets of %d×%d dies, %d-core host",
			jobs, side, side, runtime.GOMAXPROCS(0)),
		"workers", "wall ms", "jobs/s", "speedup", "forwarded", "identical")
	base := pts[0].elapsed
	for _, pt := range pts {
		identical := "yes"
		if !pt.identical {
			identical = "NO"
		}
		t.AddRow(
			fmt.Sprintf("%d", pt.workers),
			fmt.Sprintf("%.0f", 1000*pt.elapsed),
			fmt.Sprintf("%.1f", float64(pt.jobs)/pt.elapsed),
			fmt.Sprintf("%.2fx", base/pt.elapsed),
			fmt.Sprintf("%d", pt.forwarded),
			identical,
		)
	}
	t.Note("shape: members are independent daemons, so federated speedup tracks min(workers, host cores) exactly as e11's shard scaling does; workers here share one process, so a single-core host shows only the gateway's small proxying overhead while a multi-core host shows the multiplier; reports stay bit-identical to the single-node run throughout — determinism makes the placement decision invisible in the bits")
	return t, nil
}

// FederationTiming is one fleet size's federated-batch timing — the
// "federation" section of the BENCH.json artifact.
type FederationTiming struct {
	Workers       int     `json:"workers"`
	Jobs          int     `json:"jobs"`
	JobsPerSecond float64 `json:"jobs_per_second"`
	Speedup       float64 `json:"speedup"`
	Identical     bool    `json:"identical"`
}

// FederationTimings runs the E16 fleet-size sweep for the BENCH.json
// timing artifact.
func FederationTimings(scale Scale) ([]FederationTiming, error) {
	pts, err := e16Run(scale)
	if err != nil {
		return nil, err
	}
	out := make([]FederationTiming, 0, len(pts))
	for _, pt := range pts {
		out = append(out, FederationTiming{
			Workers:       pt.workers,
			Jobs:          pt.jobs,
			JobsPerSecond: float64(pt.jobs) / pt.elapsed,
			Speedup:       pts[0].elapsed / pt.elapsed,
			Identical:     pt.identical,
		})
	}
	return out, nil
}
