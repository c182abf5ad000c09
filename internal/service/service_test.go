package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/stream"
)

// testChip keeps shard simulators fast: a 40×40 die still has hundreds
// of cage sites and exercises every op.
func testChip() chip.Config {
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = 40, 40
	cfg.SensorParallelism = 40
	cfg.Parallelism = 1
	return cfg
}

// reportJSON is json.Marshal of a serial replay's report: the bytes a
// done job's Report must equal.
func reportJSON(t *testing.T, rep *assay.Report) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func testProgram(cells int) assay.Program {
	return assay.Program{
		Name: "capture-scan",
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

// TestShardedMatchesSerialReplay is the determinism acceptance test at
// the Service level: 8 concurrent seeded programs across 4 shards must
// produce reports bit-identical (including the event log) to a serial
// assay.Execute replay of the same program and seed.
func TestShardedMatchesSerialReplay(t *testing.T) {
	cfg := testChip()
	svc, err := New(Config{Shards: 4, Chip: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const jobs = 8
	pr := testProgram(10)
	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		id, err := submit(svc, pr, 100+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		j, err := svc.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != StatusDone {
			t.Fatalf("job %s: status %s (%s)", id, j.Status, j.Error)
		}
		serialCfg := cfg
		serialCfg.Seed = 100 + uint64(i)
		want, err := assay.Execute(pr, serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j.Report, reportJSON(t, want)) {
			t.Errorf("job %s (seed %d, shard %d): sharded report differs from serial replay",
				id, j.Seed, j.Shard)
		}
		var rep assay.Report
		if err := json.Unmarshal(j.Report, &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Scans) != 2 {
			t.Errorf("job %s: %d scan records, want 2", id, len(rep.Scans))
		}
	}
	st := svc.Stats()
	if st.Done != jobs {
		t.Errorf("stats.Done = %d, want %d", st.Done, jobs)
	}
}

// TestRoundRobinAssignment checks dispatcher fairness: with 4 shards and
// 8 submissions, every shard is assigned exactly 2 jobs.
func TestRoundRobinAssignment(t *testing.T) {
	svc := newFakeService(t, 4, 0, func(sh *shard, j *Job) {})
	defer svc.Close()
	perShard := map[int]int{}
	for i := 0; i < 8; i++ {
		id, err := submit(svc, testProgram(4), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		j, ok := svc.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		perShard[j.Assigned]++
	}
	for sh := 0; sh < 4; sh++ {
		if perShard[sh] != 2 {
			t.Errorf("shard %d assigned %d jobs, want 2", sh, perShard[sh])
		}
	}
}

// submit admits pr under seed and returns the job ID — the shape most
// tests want.
func submit(svc *Service, pr assay.Program, seed uint64) (string, error) {
	res, err := svc.Submit(SubmitRequest{Seed: seed, Program: pr})
	return res.ID, err
}

// newFakeService builds a service whose runner invokes fn instead of
// the physics, for dispatcher-only tests. The result cache is disabled:
// these tests deliberately submit identical (program, seed) pairs to
// exercise queueing and stealing, which the cache would coalesce away.
func newFakeService(t testing.TB, shards, depth int, fn func(sh *shard, j *Job)) *Service {
	t.Helper()
	svc, err := New(Config{Shards: shards, QueueDepth: depth, Chip: testChip(),
		Cache: CacheConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	svc.run = func(sh *shard, j *Job) (*assay.Report, error) {
		fn(sh, j)
		return &assay.Report{Program: j.Program}, nil
	}
	return svc
}

// TestWaitTimeoutReportsTerminal pins WaitTimeout's flag on a finished
// job: with a zero timeout the done and timer cases are both ready, and
// whichever select takes, the flag must say terminal.
func TestWaitTimeoutReportsTerminal(t *testing.T) {
	svc := newFakeService(t, 1, 0, func(*shard, *Job) {})
	defer svc.Close()
	id, err := submit(svc, testProgram(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
		t.Fatalf("job: %v %v", j.Status, err)
	}
	for i := 0; i < 200; i++ {
		if j, terminal, err := svc.WaitTimeout(id, 0); err != nil || !terminal {
			t.Fatalf("call %d on a done job: status %s, terminal %v, err %v", i, j.Status, terminal, err)
		}
	}
}

// TestWorkStealing pins every job on shard 0 and stalls that shard on
// its first claim: the backlog can then only drain through the other
// shards stealing it, so at least 11 of the 12 jobs must come back with
// Stolen set.
func TestWorkStealing(t *testing.T) {
	release := make(chan struct{})
	svc := newFakeService(t, 4, 0, func(sh *shard, j *Job) {
		if sh.id == 0 {
			<-release // shard 0 stalls until the thieves are done
		}
	})
	defer svc.Close()
	svc.assign = func(int, []int) int { return 0 } // skew everything onto shard 0

	const jobs = 12
	ids := make([]string, jobs)
	for i := range ids {
		id, err := submit(svc, testProgram(4), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Shard 0 executes at most one job before blocking, so the thieves
	// must finish at least jobs-1 of them before release.
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Done < jobs-1 {
		if time.Now().After(deadline) {
			t.Fatalf("thieves stalled: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	stolen := 0
	for _, id := range ids {
		j, err := svc.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, j.Status, j.Error)
		}
		if j.Assigned != 0 {
			t.Fatalf("job %s assigned to shard %d, want 0", id, j.Assigned)
		}
		if j.Stolen {
			if j.Shard == 0 {
				t.Errorf("job %s marked stolen but ran on its own shard", id)
			}
			stolen++
		}
	}
	if stolen < jobs-1 {
		t.Errorf("%d of %d jobs stolen, want at least %d", stolen, jobs, jobs-1)
	}
	st := svc.Stats()
	var stStolen uint64
	for _, sh := range st.PerShard {
		stStolen += sh.Stolen
		if sh.Shard == 0 && sh.Stolen != 0 {
			t.Errorf("shard 0 reports %d steals; everything was local to it", sh.Stolen)
		}
	}
	if stStolen != uint64(stolen) {
		t.Errorf("stats report %d steals, jobs report %d", stStolen, stolen)
	}
}

// TestQueueBackpressure blocks every shard and fills the bounded queue:
// the next submission must fail fast with ErrQueueFull and succeed again
// once the backlog drains.
func TestQueueBackpressure(t *testing.T) {
	const shards, depth = 2, 3
	release := make(chan struct{})
	svc := newFakeService(t, shards, depth, func(sh *shard, j *Job) { <-release })
	defer svc.Close()

	// Occupy every shard, then fill the queue. Claiming is asynchronous,
	// so submit until Submit has seen `depth` queued jobs rejected once:
	// first soak up shards+depth acceptances.
	accepted := []string{}
	for len(accepted) < shards+depth {
		id, err := submit(svc, testProgram(4), 1)
		if err == nil {
			accepted = append(accepted, id)
		}
	}
	// Queue is now provably at capacity or shards still claiming; keep
	// probing until a rejection arrives (no job can finish meanwhile —
	// every runner is parked on the release channel).
	var full bool
	for i := 0; i < 1000 && !full; i++ {
		id, err := submit(svc, testProgram(4), 1)
		switch {
		case err == nil:
			accepted = append(accepted, id)
		case errors.Is(err, ErrQueueFull):
			full = true
		default:
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("queue never reported backpressure")
	}
	close(release)
	for _, id := range accepted {
		if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
			t.Fatalf("job %s after drain: %v %v", id, j.Status, err)
		}
	}
	if id, err := submit(svc, testProgram(4), 1); err != nil {
		t.Fatalf("submit after drain: %v", err)
	} else if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
		t.Fatalf("job %s after drain: %v %v", id, j.Status, err)
	}
}

// TestCloseFailsQueuedJobs verifies queued (never claimed) work is
// failed, not lost, on shutdown: one shard blocks on its first job, the
// three behind it must come back failed with ErrClosed, each with the
// stream job.placed then one job.failed, and with no finish record, so
// a restart re-executes them: Close appends only the running job's.
func TestCloseFailsQueuedJobs(t *testing.T) {
	release := make(chan struct{})
	svc := newFakeService(t, 1, 8, func(sh *shard, j *Job) { <-release })
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := submit(svc, testProgram(4), 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Wait until the shard has claimed exactly one job and parked.
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("shard never claimed: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	records := svc.Stats().Store.Records
	// Close drains the queue (failing 3 jobs) before waiting for the
	// in-flight one; release the parked runner once that has happened.
	go func() {
		for svc.Stats().Failed != 3 {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()
	svc.Close()
	if got := svc.Stats().Store.Records - records; got != 1 {
		t.Errorf("Close appended %d records, want 1: the running job's finish record alone", got)
	}
	done, failed := 0, 0
	for _, id := range ids {
		j, ok := svc.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch j.Status {
		case StatusDone:
			done++
		case StatusFailed:
			if j.Error != ErrClosed.Error() {
				t.Errorf("job %s failed with %q", id, j.Error)
			}
			sub, _ := svc.SubscribeEvents(id, 0)
			var types []string
			for ev, ok := sub.Next(nil); ok; ev, ok = sub.Next(nil) {
				types = append(types, ev.Type)
			}
			sub.Cancel()
			if want := []string{stream.JobPlaced, stream.JobFailed}; !slices.Equal(types, want) {
				t.Errorf("job %s: stream %v, want %v", id, types, want)
			}
			failed++
		default:
			t.Errorf("job %s left in state %s", id, j.Status)
		}
	}
	if done != 1 || failed != 3 {
		t.Errorf("done %d failed %d, want 1 and 3", done, failed)
	}
	if _, err := submit(svc, testProgram(4), 1); err != ErrClosed {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestClassQueueFIFO pins claim order inside a class: one shard stalls
// on its first job until eight identical jobs are queued behind it in
// the same class, and once released it must run them oldest first.
func TestClassQueueFIFO(t *testing.T) {
	const behind = 8
	release := make(chan struct{})
	ran := make(chan string, behind+1)
	first := true // touched only by the one shard's goroutine
	svc := newFakeService(t, 1, 0, func(sh *shard, j *Job) {
		ran <- j.ID
		if first {
			first = false
			<-release
		}
	})
	defer svc.Close()
	ids := make([]string, behind+1)
	for i := range ids {
		id, err := submit(svc, testProgram(4), 1)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	deadline := time.Now().Add(30 * time.Second)
	for st := svc.Stats(); st.Running != 1 || st.Queued != behind; st = svc.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never formed: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, id := range ids {
		if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
			t.Fatalf("job %s: %v %v", id, j.Status, err)
		}
	}
	order := make([]string, len(ids))
	for i := range order {
		order[i] = <-ran
	}
	if !slices.Equal(order, ids) {
		t.Errorf("claim order %v, want submission order %v", order, ids)
	}
}

// TestSubmitRejectsInvalidProgram keeps static checking at the door.
func TestSubmitRejectsInvalidProgram(t *testing.T) {
	svc := newFakeService(t, 1, 0, func(sh *shard, j *Job) {})
	defer svc.Close()
	bad := assay.Program{Name: "bad", Ops: []assay.Op{assay.Capture{}}}
	if _, err := submit(svc, bad, 1); err == nil {
		t.Fatal("capture-before-load program was accepted")
	}
}

// TestUnencodableReportFailsJob: a report encoding/json rejects (here a
// NaN duration) fails its job, since a done job's report is its
// encoding. The job records the encoder's error, its stream ends in
// job.failed, and the cache keeps nothing, so a resubmission runs
// again — on both tiers, the private log and a durable one, each
// persisting the failure.
func TestUnencodableReportFailsJob(t *testing.T) {
	const want = "service: encoding report: json: unsupported value: NaN"
	for _, durable := range []bool{false, true} {
		name := "private log"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Shards: 1, Chip: testChip()}
			if durable {
				cfg.Store = openTestStore(t, t.TempDir())
			}
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			inner := svc.run
			svc.run = func(sh *shard, j *Job) (*assay.Report, error) {
				rep, err := inner(sh, j)
				if rep != nil {
					rep.Duration = math.NaN()
				}
				return rep, err
			}
			execs := countingRuns(svc)
			for i := 0; i < 2; i++ {
				res, err := svc.Submit(SubmitRequest{Seed: 5, Program: testProgram(4)})
				if err != nil {
					t.Fatal(err)
				}
				if res.Cache != "" {
					t.Fatalf("submission %d: cache %q after a failed run", i, res.Cache)
				}
				j, err := svc.Wait(res.ID)
				if err != nil || j.Status != StatusFailed || j.Error != want || j.Report != nil {
					t.Fatalf("submission %d: %s %q (%d report bytes, %v), want failed %q",
						i, j.Status, j.Error, len(j.Report), err, want)
				}
				evs := collectJobEvents(t, svc, res.ID, 0)
				if last := decodeData(t, evs[len(evs)-1]); last.Type != stream.JobFailed || last.Err != want {
					t.Fatalf("submission %d: stream ends %s %q, want %s %q",
						i, last.Type, last.Err, stream.JobFailed, want)
				}
			}
			st := svc.Stats()
			if n := execs.Load(); n != 2 || st.Cache.Entries != 0 || st.PersistErrors != 0 {
				t.Errorf("%d executions, %d cache entries, %d persist errors; want 2, 0, 0",
					n, st.Cache.Entries, st.PersistErrors)
			}
		})
	}
}
