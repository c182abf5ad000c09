package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/geom"
	"biochip/internal/particle"
)

// fleetChip builds a square test die of the given side.
func fleetChip(side int) chip.Config {
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = side, side
	cfg.SensorParallelism = side
	cfg.Parallelism = 1
	return cfg
}

// testFleet is the canonical heterogeneous test pool: two small 32×32
// dies and two large 48×48 dies.
func testFleet() Config {
	return Config{Profiles: []Profile{
		{Name: "small", Shards: 2, Chip: fleetChip(32)},
		{Name: "large", Shards: 2, Chip: fleetChip(48)},
	}}
}

// smallProgram fits every profile of testFleet.
func smallProgram() assay.Program {
	return assay.Program{
		Name: "fits-anywhere",
		Ops: []assay.Op{
			assay.Load{Kind: particle.ViableCell(), Count: 6},
			assay.Settle{},
			assay.Capture{},
			assay.Scan{Averaging: 8},
			assay.Gather{Anchor: geom.C(1, 1)},
			assay.Scan{Averaging: 8},
			assay.ReleaseAll{},
		},
	}
}

// pinnedLargeProgram carries an explicit requirements block that only
// the large profile satisfies.
func pinnedLargeProgram() assay.Program {
	pr := smallProgram()
	pr.Name = "pinned-large"
	pr.Requirements = &assay.Requirements{MinCols: 48, MinRows: 48}
	return pr
}

// inferredLargeProgram needs the large profile by geometry alone: its
// gather anchor sits outside the small die's interior, so inference
// (no explicit block) must keep it off the small profile.
func inferredLargeProgram() assay.Program {
	return assay.Program{
		Name: "inferred-large",
		Ops: []assay.Op{
			assay.Load{Kind: particle.ViableCell(), Count: 4},
			assay.Settle{},
			assay.Capture{},
			assay.Gather{Anchor: geom.C(40, 5)},
			assay.Scan{Averaging: 8},
			assay.ReleaseAll{},
		},
	}
}

// TestFleetDeterminism is the heterogeneous acceptance test, end to end
// over HTTP: a mixed batch (small-die and large-die programs) runs on a
// two-profile fleet, every job lands on an eligible profile, and every
// report is bit-identical to a serial assay.Execute replay under the
// chip config of the profile that ran it — regardless of fleet shape,
// stealing, or which shard claimed the job. CI repeats it under the
// race detector (-race -count=2).
func TestFleetDeterminism(t *testing.T) {
	svc, err := New(testFleet())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	type want struct {
		pr       assay.Program
		seed     uint64
		eligible []string
	}
	batch := []want{}
	for i := 0; i < 5; i++ {
		batch = append(batch, want{smallProgram(), 900 + uint64(i), []string{"small", "large"}})
	}
	for i := 0; i < 2; i++ {
		batch = append(batch, want{pinnedLargeProgram(), 950 + uint64(i), []string{"large"}})
	}
	batch = append(batch, want{inferredLargeProgram(), 990, []string{"large"}})

	// Submit the whole batch concurrently through the wire format.
	ids := make([]string, len(batch))
	errs := make([]error, len(batch))
	var wg sync.WaitGroup
	for i, b := range batch {
		wg.Add(1)
		go func(i int, b want) {
			defer wg.Done()
			prog, err := json.Marshal(b.pr)
			if err != nil {
				errs[i] = err
				return
			}
			body := fmt.Sprintf(`{"seed": %d, "program": %s}`, b.seed, prog)
			resp, err := http.Post(ts.URL+"/v1/assays", "application/json",
				bytes.NewReader([]byte(body)))
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
			if !reflect.DeepEqual(sub.Eligible, b.eligible) {
				errs[i] = fmt.Errorf("submit %d (%s): eligible %v, want %v",
					i, b.pr.Name, sub.Eligible, b.eligible)
				return
			}
			ids[i] = sub.ID
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for i, id := range ids {
		job := longPollJob(t, ts.URL, id)
		if job.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, job.Status, job.Error)
		}
		legal := false
		for _, name := range batch[i].eligible {
			legal = legal || name == job.Profile
		}
		if !legal {
			t.Fatalf("job %s (%s) ran on profile %q, eligible %v",
				id, job.Program, job.Profile, batch[i].eligible)
		}
		// Bit-identical to a serial replay under the executing
		// profile's config, compared in wire form (both sides cross the
		// same JSON encoding).
		serialCfg, ok := svc.ProfileConfig(job.Profile)
		if !ok {
			t.Fatalf("job %s: unknown profile %q", id, job.Profile)
		}
		serialCfg.Seed = batch[i].seed
		wantRep, err := assay.Execute(batch[i].pr, serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(job.Report)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(wantRep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("job %s (%s, seed %d, profile %s, shard %d, stolen %v): report differs from serial replay",
				id, job.Program, job.Seed, job.Profile, job.Shard, job.Stolen)
		}
	}

	// Stats reflect the fleet: per-profile records exist, large-only
	// programs never counted against small, backlog drained.
	st := svc.Stats()
	if len(st.Profiles) != 2 {
		t.Fatalf("stats: %d profiles, want 2", len(st.Profiles))
	}
	var totalExecuted uint64
	for _, ps := range st.Profiles {
		totalExecuted += ps.Executed
	}
	if totalExecuted != uint64(len(batch)) {
		t.Errorf("profile executed sums to %d, want %d", totalExecuted, len(batch))
	}
	if len(st.Classes) == 0 {
		t.Error("stats: no compatibility classes after a mixed batch")
	}
	for _, cls := range st.Classes {
		if cls.Queued != 0 {
			t.Errorf("class %v still has %d queued after drain", cls.Profiles, cls.Queued)
		}
	}
}

// TestFleetRejectsImpossibleProgram pins the 422 path: a structurally
// valid program whose requirements no profile satisfies is rejected at
// submission — typed at the service level, 422 with per-profile reasons
// over HTTP — never at execution.
func TestFleetRejectsImpossibleProgram(t *testing.T) {
	svc, err := New(testFleet())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	impossible := smallProgram()
	impossible.Name = "impossible"
	impossible.Requirements = &assay.Requirements{MinCols: 512, MinRows: 512}

	_, err = submit(svc, impossible, 1)
	var incompatible *IncompatibleError
	if !errors.As(err, &incompatible) {
		t.Fatalf("Submit returned %v, want *IncompatibleError", err)
	}
	if len(incompatible.Reasons) != 2 {
		t.Errorf("reasons cover %d profiles, want 2: %v", len(incompatible.Reasons), incompatible.Reasons)
	}
	if incompatible.Requirements.MinCols != 512 {
		t.Errorf("error carries requirements %+v, want the explicit block", incompatible.Requirements)
	}

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body, err := json.Marshal(SubmitRequest{Seed: 1, Program: impossible})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/assays", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var reply struct {
		Error    string              `json:"error"`
		Profiles map[string]string   `json:"profiles"`
		Reqs     *assay.Requirements `json:"requirements"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Error == "" || len(reply.Profiles) != 2 || reply.Reqs == nil {
		t.Errorf("422 body missing detail: %+v", reply)
	}
	if st := svc.Stats(); st.Done+st.Failed != 0 || st.Queued != 0 {
		t.Errorf("rejected program left traces in stats: %+v", st)
	}
}

// TestForcedStealBitIdenticalToSerial drives the work-stealing path
// with real physics: every job is designated to shard 0, which stalls
// before executing, so the backlog can only drain through shard 1
// claiming jobs it was not assigned — and every stolen job's report
// must still be bit-identical to a serial replay. CI repeats it under
// the race detector (-race -count=2).
func TestForcedStealBitIdenticalToSerial(t *testing.T) {
	cfg := testChip()
	svc, err := New(Config{Shards: 2, Chip: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	release := make(chan struct{})
	svc.run = func(sh *shard, j *Job) (*assay.Report, error) {
		if sh.id == 0 {
			<-release // shard 0 stalls; only shard 1 can drain the rest
		}
		return svc.execute(sh, j)
	}
	svc.assign = func(int, []int) int { return 0 } // designate everything to shard 0

	const jobs = 4
	pr := testProgram(6)
	ids := make([]string, jobs)
	for i := range ids {
		id, err := submit(svc, pr, 700+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Shard 0 executes at most one job before stalling, so shard 1 must
	// finish at least jobs-1 of them before the release.
	deadline := time.Now().Add(60 * time.Second)
	for svc.Stats().Done < jobs-1 {
		if time.Now().After(deadline) {
			t.Fatalf("thief stalled: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	stolen := 0
	for i, id := range ids {
		j, err := svc.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, j.Status, j.Error)
		}
		if j.Assigned != 0 {
			t.Fatalf("job %s designated to shard %d, want 0", id, j.Assigned)
		}
		if j.Stolen {
			if j.Shard == j.Assigned {
				t.Errorf("job %s marked stolen but Shard == Assigned == %d", id, j.Shard)
			}
			stolen++
		}
		serialCfg := cfg
		serialCfg.Seed = 700 + uint64(i)
		want, err := assay.Execute(pr, serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j.Report, reportJSON(t, want)) {
			t.Errorf("job %s (stolen %v, shard %d): report differs from serial replay",
				id, j.Stolen, j.Shard)
		}
	}
	if stolen < jobs-1 {
		t.Errorf("%d of %d jobs stolen, want at least %d", stolen, jobs, jobs-1)
	}
}

// TestStealingConfinedToEligibleProfiles proves the confinement: with a
// large-only backlog and idle small shards, the small profile never
// executes a large job, even though its shards are starving.
func TestStealingConfinedToEligibleProfiles(t *testing.T) {
	svc, err := New(testFleet())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	pr := pinnedLargeProgram()
	const jobs = 6
	ids := make([]string, jobs)
	for i := range ids {
		id, err := submit(svc, pr, 800+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		j, err := svc.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, j.Status, j.Error)
		}
		if j.Profile != "large" {
			t.Errorf("job %s executed by profile %q; stealing escaped the compatibility class", id, j.Profile)
		}
	}
	st := svc.Stats()
	for _, ps := range st.Profiles {
		if ps.Profile == "small" && ps.Executed != 0 {
			t.Errorf("small profile executed %d large-only jobs", ps.Executed)
		}
	}
}

// TestClassKeysImmuneToProfileNames pins the class-identity rule: keys
// are built from profile indices, so a profile literally named "a+b"
// cannot collide with the two-profile class {a, b} — a collision would
// merge their queues and let ineligible shards claim the merged jobs.
func TestClassKeysImmuneToProfileNames(t *testing.T) {
	svc, err := New(Config{Profiles: []Profile{
		{Name: "a", Shards: 1, Chip: fleetChip(32)},
		{Name: "b", Shards: 1, Chip: fleetChip(32)},
		{Name: "a+b", Shards: 1, Chip: fleetChip(32)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	svc.mu.Lock()
	pair := svc.classFor(svc.profiles[:2])  // {a, b}
	solo := svc.classFor(svc.profiles[2:])  // {a+b}
	again := svc.classFor(svc.profiles[:2]) // {a, b} resolves to the same class
	svc.mu.Unlock()
	if pair == solo {
		t.Fatalf("classes {a,b} and {a+b} collided on key %q", pair.key)
	}
	if pair != again {
		t.Error("identical member sets resolved to different classes")
	}
	if solo.member[0] || solo.member[1] || !solo.member[2] {
		t.Errorf("class {a+b} membership %v, want only profile 2", solo.member)
	}
}

// longPollJob waits for a terminal job state via the ?wait=1 long-poll,
// re-arming until the server reports done/failed.
func longPollJob(t *testing.T, base, id string) Job {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/assays/" + id + "?wait=1&timeout=5")
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.Status == StatusDone || job.Status == StatusFailed {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.Status)
		}
	}
}
