package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/geom"
	"biochip/internal/particle"
)

// moveProgram builds a load→capture→move→scan program whose move step
// targets exactly the cages the seeded capture traps, discovered by a
// probe simulation (deterministic per seed, so the program is valid on
// any shard and in any serial replay).
func moveProgram(t *testing.T, cfg chip.Config, seed uint64, planner string) assay.Program {
	t.Helper()
	probeCfg := cfg
	probeCfg.Seed = seed
	sim, err := chip.New(probeCfg)
	if err != nil {
		t.Fatal(err)
	}
	kind := particle.ViableCell()
	if _, err := sim.Load(&kind, 6); err != nil {
		t.Fatal(err)
	}
	sim.Settle(sim.Chamber().Height / (5e-6))
	if _, trapped, err := sim.CaptureAll(); err != nil || trapped == 0 {
		t.Fatalf("probe capture: %d trapped, err %v", trapped, err)
	}
	ids := sim.Layout().IDs()
	sort.Ints(ids)
	mv := assay.Move{Planner: planner}
	for i, id := range ids {
		mv.Agents = append(mv.Agents, assay.MoveTarget{ID: id, Goal: geom.C(1+2*i, 1)})
	}
	return assay.Program{
		Name: "move-scan",
		Ops: []assay.Op{
			assay.Load{Kind: kind, Count: 6},
			assay.Settle{},
			assay.Capture{},
			mv,
			assay.Scan{Averaging: 8},
		},
	}
}

// TestHTTPMoveStepShardedBitIdenticalToSerial is the PR's end-to-end
// acceptance test: assay programs containing a move step (with the
// partitioned planner) round-trip through the assayd HTTP surface on a
// 4-shard pool, and every report is bit-identical to a serial replay.
// The per-planner timing counters must afterwards be visible in
// /v1/stats.
func TestHTTPMoveStepShardedBitIdenticalToSerial(t *testing.T) {
	cfg := testChip()
	svc, err := New(Config{Shards: 4, Chip: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const jobs = 4
	seeds := make([]uint64, jobs)
	programs := make([]assay.Program, jobs)
	for i := range seeds {
		seeds[i] = 900 + uint64(i)
		programs[i] = moveProgram(t, cfg, seeds[i], "partitioned")
	}

	ids := make([]string, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(programs[i])
			if err != nil {
				errs[i] = err
				return
			}
			req := fmt.Sprintf(`{"seed": %d, "program": %s}`, seeds[i], body)
			resp, err := http.Post(ts.URL+"/v1/assays", "application/json",
				bytes.NewReader([]byte(req)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			var sub SubmitResult
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				errs[i] = err
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for i, id := range ids {
		job := pollJob(t, ts.URL, id)
		if job.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, job.Status, job.Error)
		}
		serialCfg := cfg
		serialCfg.Seed = seeds[i]
		want, err := assay.Execute(programs[i], serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(job.Report)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("job %s (seed %d, shard %d): HTTP report with move step differs from serial replay",
				id, job.Seed, job.Shard)
		}
		if len(want.Routings) != 1 || want.Routings[0].Planner != "partitioned" {
			t.Errorf("job %s: routing provenance = %+v", id, want.Routings)
		}
	}

	// Per-planner timing counters surface on the stats endpoint.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var part *PlannerStats
	for i := range st.Planners {
		if st.Planners[i].Planner == "partitioned" {
			part = &st.Planners[i]
		}
	}
	if part == nil {
		t.Fatalf("/v1/stats has no partitioned counters: %+v", st.Planners)
	}
	if part.Plans != jobs || part.Moves == 0 || part.PlanSeconds <= 0 {
		t.Errorf("partitioned counters = %+v, want %d plans with moves and wall time", part, jobs)
	}
}
