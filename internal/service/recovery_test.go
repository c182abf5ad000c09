package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/store"
	"biochip/internal/stream"
)

// openTestStore opens a NoSync disk store in dir (fsync adds nothing
// under a test that closes cleanly, and the torn-tail paths are pinned
// by the store's own tests).
func openTestStore(t *testing.T, dir string) *store.Disk {
	t.Helper()
	d, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// serialStream executes the program serially under the test chip at the
// given seed and returns the report's encoding (the bytes a done job's
// Report must equal) plus the canonical event stream a durable service
// must reproduce: the two envelope events, the execution events shifted
// by two, and the terminal job.done — exactly what
// Submit/markRunning/finish publish around ExecuteOnStream.
func serialStream(t *testing.T, pr assay.Program, seed uint64, id string) (json.RawMessage, []stream.Event) {
	t.Helper()
	sim, err := chip.New(testChip())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Reset(seed); err != nil {
		t.Fatal(err)
	}
	var c stream.Collector
	rep, err := assay.ExecuteOnStream(sim, pr, c.Sink())
	if err != nil {
		t.Fatal(err)
	}
	evs := []stream.Event{
		{Seq: 1, Type: stream.JobPlaced, Job: &stream.JobInfo{
			ID: id, Program: pr.Name, Seed: seed, Eligible: []string{"default"}}},
		{Seq: 2, Type: stream.JobStarted, Job: &stream.JobInfo{ID: id, Profile: "default"}},
	}
	for _, ev := range c.Events {
		ev.Seq += 2
		evs = append(evs, ev)
	}
	evs = append(evs, stream.Event{
		Seq: uint64(len(evs) + 1), Type: stream.JobDone, T: rep.Duration,
		Job: &stream.JobInfo{ID: id, Duration: rep.Duration, Trapped: rep.Trapped,
			Steps: rep.Steps, ScanErrors: rep.ScanErrors}})
	return reportJSON(t, rep), evs
}

// TestCrashRecoveryServedFromDisk is the recovery acceptance test (run
// in CI under -race -count=2): a job runs to completion on a durable
// service, the process "dies" (service closed, store closed, nothing
// carried over in memory), and a fresh service over the same directory
// must serve the job from disk — terminal status, report and full event
// stream all byte-identical to the original, and to a serial
// ExecuteOnStream replay of (program, seed).
func TestCrashRecoveryServedFromDisk(t *testing.T) {
	dir := t.TempDir()
	pr := testProgram(10)
	const seed = 4242

	d := openTestStore(t, dir)
	svc, err := New(Config{Shards: 1, Chip: testChip(), Store: d})
	if err != nil {
		t.Fatal(err)
	}
	id, err := submit(svc, pr, seed)
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.Wait(id)
	if err != nil || j.Status != StatusDone {
		t.Fatalf("job: %v %v", j.Status, err)
	}
	origEvents := canonicalJSON(t, collectJobEvents(t, svc, id, 0))
	origReport, err := json.Marshal(j.Report)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh store handle, fresh service, same directory.
	d2 := openTestStore(t, dir)
	defer d2.Close()
	svc2, err := New(Config{Shards: 1, Chip: testChip(), Store: d2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	j2, ok := svc2.Get(id)
	if !ok {
		t.Fatalf("job %s lost across restart", id)
	}
	if j2.Status != StatusDone || !j2.Recovered {
		t.Fatalf("recovered job: status %s recovered %v", j2.Status, j2.Recovered)
	}
	// Wait must return immediately: the job is terminal.
	if _, err := svc2.Wait(id); err != nil {
		t.Fatal(err)
	}
	gotReport, err := json.Marshal(j2.Report)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReport) != string(origReport) {
		t.Errorf("recovered report differs:\n got %s\nwant %s", gotReport, origReport)
	}
	gotEvents := canonicalJSON(t, collectJobEvents(t, svc2, id, 0))
	if gotEvents != origEvents {
		t.Errorf("recovered event stream differs:\n got %s\nwant %s", gotEvents, origEvents)
	}
	// Both equal the serial replay: recovery preserved determinism, not
	// just bytes.
	wantRep, wantEvs := serialStream(t, pr, seed, id)
	if !bytes.Equal(j2.Report, wantRep) {
		t.Error("recovered report differs from serial replay")
	}
	if want := canonicalJSON(t, wantEvs); gotEvents != want {
		t.Errorf("recovered stream differs from serial replay:\n got %s\nwant %s", gotEvents, want)
	}
	if st := svc2.Stats(); st.Recovered != 1 || st.Done != 1 {
		t.Errorf("stats after recovery: recovered %d done %d", st.Recovered, st.Done)
	}
	if st := svc2.Stats(); st.Store == nil || st.Store.Kind != "disk" {
		t.Errorf("stats carry no store snapshot: %+v", st.Store)
	}
}

// TestCrashRecoveryReexecutesInFlight pins the mid-job crash: the log
// holds a submission with no finish record — the previous process was
// killed while the job was queued or running. The restarted service
// must re-execute it deterministically from (program, seed) and emit a
// stream byte-identical to the serial replay, then persist the finish
// so a second restart serves it from disk.
func TestCrashRecoveryReexecutesInFlight(t *testing.T) {
	dir := t.TempDir()
	pr := testProgram(10)
	const seed = 777
	const id = "a-000001"

	// Construct the crash state directly: a WAL'd submission, nothing
	// else — exactly what a kill between the 202 ack and completion
	// leaves behind.
	d := openTestStore(t, dir)
	raw, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LogSubmit(store.SubmitRecord{ID: id, Seed: seed, Program: raw}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTestStore(t, dir)
	svc, err := New(Config{Shards: 1, Chip: testChip(), Store: d2})
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusDone || !j.Recovered {
		t.Fatalf("re-executed job: status %s (%s) recovered %v", j.Status, j.Error, j.Recovered)
	}
	wantRep, wantEvs := serialStream(t, pr, seed, id)
	if !bytes.Equal(j.Report, wantRep) {
		t.Error("re-executed report differs from serial replay")
	}
	got := canonicalJSON(t, collectJobEvents(t, svc, id, 0))
	if want := canonicalJSON(t, wantEvs); got != want {
		t.Errorf("re-executed stream differs from serial replay:\n got %s\nwant %s", got, want)
	}
	svc.Close()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// Second restart: the finish record persisted above means the job is
	// now served from disk, not executed a third time.
	d3 := openTestStore(t, dir)
	defer d3.Close()
	svc2, err := New(Config{Shards: 1, Chip: testChip(), Store: d3})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	j2, ok := svc2.Get(id)
	if !ok || j2.Status != StatusDone || !j2.Recovered {
		t.Fatalf("second restart: %v %s", ok, j2.Status)
	}
	if got := canonicalJSON(t, collectJobEvents(t, svc2, id, 0)); got != canonicalJSON(t, wantEvs) {
		t.Error("stream differs after second restart")
	}
	if !bytes.Equal(j2.Report, wantRep) {
		t.Error("report differs after second restart")
	}
}

// TestCloseWithoutDrainRecovery is the SIGKILL-equivalent integration
// path: Close fails still-queued jobs in memory but deliberately writes
// no finish record for them, so across a restart they are re-executed —
// an acked submission is never lost, and each recovered result is
// bit-identical to a serial replay. The ID sequence also continues past
// the recovered jobs instead of reissuing their IDs.
func TestCloseWithoutDrainRecovery(t *testing.T) {
	dir := t.TempDir()
	pr := testProgram(10)

	d := openTestStore(t, dir)
	svc, err := New(Config{Shards: 1, Chip: testChip(), Store: d})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := submit(svc, pr, 100+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// WAL before ack: all three submissions are already durable, however
	// far execution got.
	if recs := d.Stats().Records; recs < 3 {
		t.Fatalf("only %d records on disk after 3 acked submissions", recs)
	}
	svc.Close() // no drain: queued jobs die unfinished, like a kill
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTestStore(t, dir)
	defer d2.Close()
	svc2, err := New(Config{Shards: 1, Chip: testChip(), Store: d2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	for i, id := range ids {
		j, err := svc2.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != StatusDone || !j.Recovered {
			t.Fatalf("job %s: status %s (%s) recovered %v", id, j.Status, j.Error, j.Recovered)
		}
		wantRep, wantEvs := serialStream(t, pr, 100+uint64(i), id)
		if !bytes.Equal(j.Report, wantRep) {
			t.Errorf("job %s: recovered report differs from serial replay", id)
		}
		got := canonicalJSON(t, collectJobEvents(t, svc2, id, 0))
		if want := canonicalJSON(t, wantEvs); got != want {
			t.Errorf("job %s: recovered stream differs from serial replay", id)
		}
	}
	// New submissions continue the ID sequence past the recovered jobs.
	next, err := submit(svc2, pr, 9)
	if err != nil {
		t.Fatal(err)
	}
	if next != "a-000004" {
		t.Errorf("post-recovery ID %s, want a-000004", next)
	}
	if st := svc2.Stats(); st.Recovered != 3 {
		t.Errorf("stats recovered %d, want 3", st.Recovered)
	}
}

// TestDurableBackfillNoGap is the gap-semantics regression for durable
// services: once the ring is offloaded to the log, a late subscriber
// must still replay the complete stream — the log backfills every event
// the ring dropped, so a gap event would be lying.
func TestDurableBackfillNoGap(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir)
	defer d.Close()
	svc, err := New(Config{Shards: 1, Chip: testChip(), Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := submit(svc, testProgram(10), 7)
	if err != nil {
		t.Fatal(err)
	}
	if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
		t.Fatalf("job: %v %v", j.Status, err)
	}
	evs := collectJobEvents(t, svc, id, 0)
	for i, ev := range evs {
		if ev.Type == stream.Gap {
			t.Fatalf("event %d is a gap despite a durable log", i)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: stream not complete", i, ev.Seq)
		}
	}
	if len(evs) < 10 {
		t.Fatalf("only %d events replayed from the log", len(evs))
	}
	if evs[len(evs)-1].Type != stream.JobDone {
		t.Errorf("terminal event %q, want job.done", evs[len(evs)-1].Type)
	}
}

// TestRecoveryIncompatibleFleet shrinks the fleet across the restart: a
// recovered in-flight job that no longer fits any profile must fail
// terminally — and durably, so the next restart serves the failure from
// disk instead of retrying forever.
func TestRecoveryIncompatibleFleet(t *testing.T) {
	dir := t.TempDir()
	big := testChip()
	pr := testProgram(10)
	pr.Requirements = &assay.Requirements{MinCols: big.Array.Cols, MinRows: big.Array.Rows}

	// Construct the crash state directly: the job's submission and
	// nothing else, as a kill with the job still queued leaves it. No
	// service runs here, so none can finish the job first.
	const id = "a-000001"
	d := openTestStore(t, dir)
	raw, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LogSubmit(store.SubmitRecord{ID: id, Seed: 5, Program: raw}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	small := testChip()
	small.Array.Cols, small.Array.Rows = 24, 24
	small.SensorParallelism = 24
	d2 := openTestStore(t, dir)
	svc2, err := New(Config{Shards: 1, Chip: small, Store: d2})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := svc2.Get(id)
	if !ok || j.Status != StatusFailed || !j.Recovered || j.Error == "" {
		t.Fatalf("incompatible recovered job: %v %s %q", ok, j.Status, j.Error)
	}
	evs := collectJobEvents(t, svc2, id, 0)
	if len(evs) == 0 || evs[len(evs)-1].Type != stream.JobFailed {
		t.Fatalf("failure stream: %+v", evs)
	}
	svc2.Close()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// The failure was persisted: another restart serves it from disk.
	d3 := openTestStore(t, dir)
	defer d3.Close()
	svc3, err := New(Config{Shards: 1, Chip: small, Store: d3})
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	if j3, ok := svc3.Get(id); !ok || j3.Status != StatusFailed || !j3.Recovered {
		t.Fatalf("third open: %v %s", ok, j3.Status)
	}
}

// TestRecoverySevenDigitJobIDs pins job IDs past a-999999: a log whose
// submit records run a-999999, a-1000000 recovers both, the next
// submission is a-1000001, and it heads the newest-first listing.
func TestRecoverySevenDigitJobIDs(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir)
	raw, err := json.Marshal(testProgram(4))
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"a-999999", "a-1000000"}
	for i, id := range ids {
		if err := d.LogSubmit(store.SubmitRecord{ID: id, Seed: 70 + uint64(i), Program: raw}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openTestStore(t, dir)
	defer d.Close()
	svc, err := New(Config{Shards: 1, Chip: testChip(), Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, id := range ids {
		if j, err := svc.Wait(id); err != nil || j.Status != StatusDone || !j.Recovered {
			t.Fatalf("job %s: %+v %v, want recovered and done", id, j, err)
		}
	}
	if id, err := submit(svc, testProgram(4), 72); err != nil || id != "a-1000001" {
		t.Fatalf("next submission: %q %v, want a-1000001", id, err)
	}
	if page := svc.List(ListFilter{Newest: true, Limit: 1}); len(page.Jobs) != 1 || page.Jobs[0].ID != "a-1000001" {
		t.Errorf("newest job listed: %+v, want a-1000001", page.Jobs)
	}
}

// TestParseJobID pins the strict job-ID grammar recovery relies on —
// "a-" and decimal digits naming a positive number, nothing after — and
// that JobID's IDs parse back.
func TestParseJobID(t *testing.T) {
	for id, want := range map[string]int{
		"a-000001": 1, "a-1000000": 1000000, "a-7": 7,
		// Malformed: no sequence number.
		"a-": 0, "a-000000": 0, "a-12x": 0, "a-+12": 0, "a--12": 0, "b-000001": 0,
		" a-000001": 0, "a-99999999999999999999": 0,
	} {
		seq, ok := ParseJobID(id)
		if !ok {
			seq = 0
		}
		if seq != want || ok != (want > 0) {
			t.Errorf("ParseJobID(%q) = %d, %v; want %d", id, seq, ok, want)
		}
	}
	for _, seq := range []int{1, 999999, 1000000} {
		if got, ok := ParseJobID(JobID(seq)); !ok || got != seq {
			t.Errorf("ParseJobID(JobID(%d)) = %d, %v", seq, got, ok)
		}
	}
}
