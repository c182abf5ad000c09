package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/store"
	"biochip/internal/stream"
)

// collectJobEvents drains a finished job's full event stream from the
// service (the ring is closed, so this never blocks).
func collectJobEvents(t *testing.T, svc *Service, id string, after uint64) []stream.Event {
	t.Helper()
	sub, ok := svc.SubscribeEvents(id, after)
	if !ok {
		t.Fatalf("job %s has no event stream", id)
	}
	defer sub.Cancel()
	closed := make(chan struct{})
	close(closed)
	var out []stream.Event
	for {
		ev, ok := sub.Next(closed)
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// canonicalJSON renders events one per line with the wall-clock stamp
// (the one field excluded from the determinism contract) zeroed.
func canonicalJSON(t *testing.T, evs []stream.Event) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range evs {
		ev.Wall = 0
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.String()
}

// runStreamedJob submits one seeded job on a fresh service built from
// cfg, waits for it and returns its full event stream.
func runStreamedJob(t *testing.T, cfg Config, pr assay.Program, seed uint64) []stream.Event {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := submit(svc, pr, seed)
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", id, j.Status, j.Error)
	}
	return collectJobEvents(t, svc, id, 0)
}

// TestStreamDeterminism is the streaming acceptance test (run in CI
// under -race -count=2): for a fixed seed, a job's event stream —
// sequence numbers, order and payloads, excluding only wall-clock
// stamps — is bit-identical across intra-die Parallelism levels and
// across sharded vs. serial execution, and the execution events match a
// plain serial assay.ExecuteOnStream replay.
func TestStreamDeterminism(t *testing.T) {
	pr := testProgram(10)
	const seed = 4242
	base := testChip()

	parallelDie := base
	parallelDie.Parallelism = 4

	variants := []struct {
		name string
		cfg  Config
	}{
		{"serial 1-shard", Config{Shards: 1, Chip: base}},
		{"sharded 4-shard", Config{Shards: 4, Chip: base}},
		{"sharded 2-shard parallel die", Config{Shards: 2, Chip: parallelDie}},
	}
	var want string
	var wantEvents []stream.Event
	for _, v := range variants {
		evs := runStreamedJob(t, v.cfg, pr, seed)
		got := canonicalJSON(t, evs)
		if want == "" {
			want, wantEvents = got, evs
			continue
		}
		if got != want {
			t.Errorf("event stream of %q differs from %q", v.name, variants[0].name)
		}
	}

	// Envelope shape: placed is always seq 1, started seq 2, done last.
	if len(wantEvents) < 3 {
		t.Fatalf("stream has only %d events", len(wantEvents))
	}
	if wantEvents[0].Type != stream.JobPlaced || wantEvents[0].Seq != 1 {
		t.Errorf("first event %q seq %d, want job.placed seq 1", wantEvents[0].Type, wantEvents[0].Seq)
	}
	if wantEvents[1].Type != stream.JobStarted || wantEvents[1].Seq != 2 {
		t.Errorf("second event %q seq %d, want job.started seq 2", wantEvents[1].Type, wantEvents[1].Seq)
	}
	last := wantEvents[len(wantEvents)-1]
	if last.Type != stream.JobDone {
		t.Errorf("terminal event %q, want job.done", last.Type)
	}
	for i, ev := range wantEvents {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: stream not gap-free", i, ev.Seq)
		}
	}

	// The service stream's execution events are exactly what a plain
	// serial replay emits: same payloads, sequence shifted by the two
	// envelope events.
	sim, err := chip.New(testChip())
	if err != nil {
		t.Fatal(err)
	}
	cfgSeed := testChip()
	cfgSeed.Seed = seed
	if err := sim.Reset(seed); err != nil {
		t.Fatal(err)
	}
	var c stream.Collector
	if _, err := assay.ExecuteOnStream(sim, pr, c.Sink()); err != nil {
		t.Fatal(err)
	}
	exec := wantEvents[2 : len(wantEvents)-1]
	if len(exec) != len(c.Events) {
		t.Fatalf("service stream has %d execution events, serial replay %d", len(exec), len(c.Events))
	}
	for i := range exec {
		a, b := exec[i], c.Events[i]
		if a.Seq != b.Seq+2 {
			t.Errorf("execution event %d: seq %d, want serial seq %d + 2", i, a.Seq, b.Seq)
		}
		a.Seq, a.Wall = 0, 0
		b.Seq, b.Wall = 0, 0
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Errorf("execution event %d differs from serial replay:\n  service: %s\n  serial:  %s", i, aj, bj)
		}
	}
}

// TestStreamGapWindow shrinks the per-job ring far below the stream
// length: a subscriber arriving after completion must get one gap event
// naming the lost prefix, then the retained tail — bounded memory with
// explicit truncation, never an unbounded buffer.
func TestStreamGapWindow(t *testing.T) {
	// Cache off: a cacheable job's ring is pinned and keeps its full
	// stream, which would hide exactly the truncation this test pins.
	svc, err := New(Config{Shards: 1, EventBuffer: 4, Chip: testChip(),
		Cache: CacheConfig{Disable: true}})
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
	if len(evs) != 5 {
		t.Fatalf("got %d events, want gap + 4 retained", len(evs))
	}
	if evs[0].Type != stream.Gap || evs[0].Gap == nil {
		t.Fatalf("first event %q, want gap", evs[0].Type)
	}
	lastSeq := evs[len(evs)-1].Seq
	if evs[0].Gap.From != 1 || evs[0].Gap.To != lastSeq-4 {
		t.Errorf("gap [%d,%d], want [1,%d]", evs[0].Gap.From, evs[0].Gap.To, lastSeq-4)
	}
	if evs[len(evs)-1].Type != stream.JobDone {
		t.Errorf("terminal retained event %q, want job.done", evs[len(evs)-1].Type)
	}
}

// sseFrame is one parsed Server-Sent-Events frame.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readSSEFrames parses frames off an open SSE stream until max frames
// arrive (max <= 0: until the stream ends). The second result reports
// whether the stream ended.
func readSSEFrames(r *bufio.Reader, max int) ([]sseFrame, bool) {
	var frames []sseFrame
	var cur sseFrame
	for max <= 0 || len(frames) < max {
		line, err := r.ReadString('\n')
		if err != nil {
			return frames, true
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
			continue
		}
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return frames, false
}

// decodeFrames unpacks the JSON payloads of SSE frames.
func decodeFrames(t *testing.T, frames []sseFrame) []stream.Event {
	t.Helper()
	out := make([]stream.Event, len(frames))
	for i, f := range frames {
		if err := json.Unmarshal([]byte(f.data), &out[i]); err != nil {
			t.Fatalf("frame %d (%q): %v", i, f.data, err)
		}
		if f.event != out[i].Type {
			t.Fatalf("frame %d SSE event %q, payload type %q", i, f.event, out[i].Type)
		}
	}
	return out
}

// TestSSEReconnectResume is the reconnect acceptance test (run in CI
// under -race -count=2): the first connection is killed mid-assay, the
// client reconnects with the standard Last-Event-ID header, and the
// concatenated sequence must be gap-free, duplicate-free and equal to a
// single-connection run.
func TestSSEReconnectResume(t *testing.T) {
	const preCut, total = 10, 30
	gate := make(chan struct{})
	reached := make(chan struct{})
	svc := newFakeService(t, 1, 0, nil)
	defer svc.Close()
	svc.run = func(sh *shard, j *Job) (*assay.Report, error) {
		for i := 0; i < total; i++ {
			if i == preCut {
				close(reached)
				<-gate // park mid-assay until the first connection is cut
			}
			j.ring.Publish(stream.Event{Type: stream.OpStarted,
				Op: &stream.OpInfo{Index: i, Kind: "load"}})
		}
		return &assay.Report{Program: j.Program}, nil
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	id, err := submit(svc, testProgram(4), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Connection 1: consume the head of the stream, then hang up.
	resp, err := http.Get(ts.URL + "/v1/assays/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	<-reached // the runner is parked mid-assay: this connection is live
	head, ended := readSSEFrames(bufio.NewReader(resp.Body), preCut)
	if ended {
		t.Fatal("stream ended before the cut")
	}
	resp.Body.Close() // kill the connection mid-assay
	lastID := ""
	for _, f := range head {
		if f.id != "" {
			lastID = f.id
		}
	}
	if lastID == "" {
		t.Fatal("no event ids before the cut")
	}
	close(gate) // let the assay finish
	if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
		t.Fatalf("job: %v %v", j.Status, err)
	}

	// Connection 2: resume via Last-Event-ID, read to end-of-stream.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/assays/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", lastID)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tail, ended := readSSEFrames(bufio.NewReader(resp2.Body), 0)
	if !ended {
		t.Fatal("resumed stream did not terminate")
	}

	// Reference: one fresh connection replaying the whole stream.
	resp3, err := http.Get(ts.URL + "/v1/assays/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	full, _ := readSSEFrames(bufio.NewReader(resp3.Body), 0)

	joined := decodeFrames(t, append(append([]sseFrame{}, head...), tail...))
	want := decodeFrames(t, full)
	if len(joined) != len(want) {
		t.Fatalf("reconnected run has %d events, single connection %d", len(joined), len(want))
	}
	for i := range joined {
		if joined[i].Seq != uint64(i+1) {
			t.Fatalf("concatenated event %d has seq %d: gap or duplicate", i, joined[i].Seq)
		}
		a, _ := json.Marshal(joined[i])
		b, _ := json.Marshal(want[i])
		if string(a) != string(b) {
			t.Errorf("event %d differs after reconnect:\n  got  %s\n  want %s", i, a, b)
		}
	}
	cut, err := strconv.Atoi(lastID)
	if err != nil || cut <= 0 || cut >= len(joined) {
		t.Fatalf("implausible cut point %q over %d events", lastID, len(joined))
	}
}

// TestSSEResumeAcrossRestart is the durable reconnect acceptance test
// (run in CI under -race -count=2): a client consumes part of a live
// SSE stream, the daemon restarts — new service, new store handle, same
// data directory — and a reconnect with the standard Last-Event-ID
// header must resume exactly where it stopped, even though the resume
// point left the (tiny) in-memory ring window long ago: the persisted
// log backfills it. The concatenated head+tail sequence is gapless,
// duplicate-free and byte-identical to the uninterrupted stream.
func TestSSEResumeAcrossRestart(t *testing.T) {
	const preCut, total = 6, 30
	dir := t.TempDir()
	d, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	reached := make(chan struct{})
	svc, err := New(Config{Shards: 1, EventBuffer: 4, Chip: testChip(), Store: d})
	if err != nil {
		t.Fatal(err)
	}
	svc.run = func(sh *shard, j *Job) (*assay.Report, error) {
		for i := 0; i < total; i++ {
			if i == preCut {
				close(reached)
				<-gate // park mid-assay until the first connection read its head
			}
			j.ring.Publish(stream.Event{Type: stream.OpStarted,
				Op: &stream.OpInfo{Index: i, Kind: "load"}})
		}
		return &assay.Report{Program: j.Program}, nil
	}
	ts := httptest.NewServer(svc.Handler())

	id, err := submit(svc, testProgram(4), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Connection 1: read the head of the live stream, remember the
	// standard resume cursor, hang up.
	resp, err := http.Get(ts.URL + "/v1/assays/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	head, ended := readSSEFrames(bufio.NewReader(resp.Body), preCut)
	if ended {
		t.Fatal("stream ended before the cut")
	}
	resp.Body.Close()
	lastID := ""
	for _, f := range head {
		if f.id != "" {
			lastID = f.id
		}
	}
	if lastID == "" {
		t.Fatal("no event ids before the cut")
	}

	// Let the assay finish, capture the uninterrupted reference stream,
	// then take the whole daemon down.
	close(gate)
	if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
		t.Fatalf("job: %v %v", j.Status, err)
	}
	reference := collectJobEvents(t, svc, id, 0)
	ts.Close()
	svc.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory. The job is served from disk; its
	// ring window is empty, so the resume below lives entirely off the
	// persisted log.
	d2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	svc2, err := New(Config{Shards: 1, EventBuffer: 4, Chip: testChip(), Store: d2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()

	// Connection 2, against the restarted daemon: resume via
	// Last-Event-ID, read to end-of-stream.
	req, err := http.NewRequest(http.MethodGet, ts2.URL+"/v1/assays/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", lastID)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resume after restart: HTTP %d", resp2.StatusCode)
	}
	tail, ended := readSSEFrames(bufio.NewReader(resp2.Body), 0)
	if !ended {
		t.Fatal("resumed stream did not terminate")
	}

	joined := decodeFrames(t, append(append([]sseFrame{}, head...), tail...))
	if len(joined) != len(reference) {
		t.Fatalf("reconnected run has %d events, uninterrupted stream %d", len(joined), len(reference))
	}
	for i := range joined {
		if joined[i].Seq != uint64(i+1) {
			t.Fatalf("concatenated event %d has seq %d: gap or duplicate across restart", i, joined[i].Seq)
		}
		if joined[i].Type == stream.Gap {
			t.Fatalf("event %d is a gap: the log should have backfilled it", i)
		}
	}
	if got, want := canonicalJSON(t, joined), canonicalJSON(t, reference); got != want {
		t.Errorf("stream differs across restart:\n got %s\nwant %s", got, want)
	}
	cut, err := strconv.Atoi(lastID)
	if err != nil || cut <= 0 || cut >= len(joined) {
		t.Fatalf("implausible cut point %q over %d events", lastID, len(joined))
	}
	// The cut is deep in the backfilled region: the restarted ring
	// retains nothing, so none of the tail came from a live window.
	if first := tail[0]; first.id == "" {
		t.Fatalf("tail starts with a synthetic frame: %+v", first)
	}
}

// TestDrainGraceful pins the shutdown sequence: a draining service
// rejects new work with ErrDraining (503 + Retry-After on the wire,
// healthz flips to 503/draining), finishes queued and running jobs, and
// open SSE subscribers receive a terminal shutdown event instead of a
// silent hangup.
func TestDrainGraceful(t *testing.T) {
	release := make(chan struct{})
	svc := newFakeService(t, 1, 8, func(sh *shard, j *Job) { <-release })
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// One running job, one queued behind it.
	first, err := submit(svc, testProgram(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := submit(svc, testProgram(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatal("shard never claimed the first job")
		}
		time.Sleep(time.Millisecond)
	}

	// Subscribe to the queued job before the drain starts.
	resp, err := http.Get(ts.URL + "/v1/assays/" + second + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	drained := make(chan struct{})
	go func() {
		svc.Drain()
		close(drained)
	}()
	for !svc.Draining() {
		time.Sleep(time.Millisecond)
	}

	// Admission is closed (typed error and 503 + Retry-After on the
	// wire) while the backlog still runs.
	if _, err := submit(svc, testProgram(4), 3); err != ErrDraining {
		t.Errorf("submit while draining: %v, want ErrDraining", err)
	}
	body, _ := json.Marshal(SubmitRequest{Seed: 9, Program: testProgram(4)})
	post, err := http.Post(ts.URL+"/v1/assays", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", post.StatusCode)
	}
	if ra := post.Header.Get("Retry-After"); ra == "" {
		t.Error("draining 503 carries no Retry-After")
	}
	hz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("healthz while draining: %d %q, want 503 draining", hz.StatusCode, h.Status)
	}

	// Release the parked runner: both jobs must finish (drain does not
	// fail queued work the way Close does) and the drain completes.
	close(release)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}
	for _, id := range []string{first, second} {
		if j, _ := svc.Get(id); j.Status != StatusDone {
			t.Errorf("job %s: %s after drain, want done", id, j.Status)
		}
	}

	// The open subscriber sees the queued job's full stream, then the
	// terminal shutdown event.
	frames, ended := readSSEFrames(bufio.NewReader(resp.Body), 0)
	if !ended {
		t.Fatal("subscriber stream did not terminate after drain")
	}
	evs := decodeFrames(t, frames)
	if len(evs) < 2 {
		t.Fatalf("subscriber saw %d events", len(evs))
	}
	if evs[len(evs)-1].Type != stream.Shutdown {
		t.Errorf("final event %q, want shutdown", evs[len(evs)-1].Type)
	}
	if evs[len(evs)-2].Type != stream.JobDone {
		t.Errorf("event before shutdown is %q, want job.done", evs[len(evs)-2].Type)
	}

	// Healthy-state sanity on a fresh service: healthz reports ok/200.
	svc2 := newFakeService(t, 1, 0, func(sh *shard, j *Job) {})
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	hz2, err := http.Get(ts2.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz2.Body.Close()
	var h2 Health
	if err := json.NewDecoder(hz2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if hz2.StatusCode != http.StatusOK || h2.Status != "ok" {
		t.Errorf("healthy healthz: %d %q, want 200 ok", hz2.StatusCode, h2.Status)
	}
}

// TestListEndpoint drives GET /v1/assays: status filtering, cursor
// pagination in both orders, and report stripping.
func TestListEndpoint(t *testing.T) {
	svc := newFakeService(t, 1, 0, func(sh *shard, j *Job) {})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		id, err := submit(svc, testProgram(4), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
			t.Fatalf("job %s: %v %v", id, j.Status, err)
		}
	}

	getPage := func(query string) ListPage {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/assays" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/assays%s: %d", query, resp.StatusCode)
		}
		var page ListPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	// Full listing, submission order, no reports in the payload.
	page := getPage("")
	if len(page.Jobs) != 5 || page.Next != "" {
		t.Fatalf("full listing: %d jobs, next %q", len(page.Jobs), page.Next)
	}
	for i, j := range page.Jobs {
		if j.ID != ids[i] {
			t.Errorf("listing[%d] = %s, want %s", i, j.ID, ids[i])
		}
		if j.Report != nil {
			t.Errorf("listing[%d] carries a report", i)
		}
	}

	// Cursor pagination: two pages of 3 + 2.
	page = getPage("?limit=3")
	if len(page.Jobs) != 3 || page.Next != ids[2] {
		t.Fatalf("page 1: %d jobs, next %q", len(page.Jobs), page.Next)
	}
	page = getPage("?limit=3&after=" + page.Next)
	if len(page.Jobs) != 2 || page.Next != "" {
		t.Fatalf("page 2: %d jobs, next %q", len(page.Jobs), page.Next)
	}
	if page.Jobs[0].ID != ids[3] || page.Jobs[1].ID != ids[4] {
		t.Errorf("page 2 ids: %s %s", page.Jobs[0].ID, page.Jobs[1].ID)
	}

	// Newest-first: the head of the descending listing is the last
	// submission — what `assayctl watch latest` points at.
	page = getPage("?order=desc&limit=1")
	if len(page.Jobs) != 1 || page.Jobs[0].ID != ids[4] {
		t.Fatalf("newest: %+v", page.Jobs)
	}
	if page.Next != ids[4] {
		t.Errorf("newest page next %q, want %s", page.Next, ids[4])
	}

	// Status filter: everything is done, so queued is empty.
	if page := getPage("?status=queued"); len(page.Jobs) != 0 {
		t.Errorf("queued filter returned %d jobs", len(page.Jobs))
	}
	if page := getPage("?status=done"); len(page.Jobs) != 5 {
		t.Errorf("done filter returned %d jobs", len(page.Jobs))
	}
}
