package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biochip/internal/service"
	"biochip/internal/store"
	"biochip/internal/stream"
)

// goldenFrames frames docs/examples/events.ndjson — a real worker
// stream of job a-000001 — as the SSE body a worker serves, with the
// job renamed to remoteID.
func goldenFrames(t testing.TB, remoteID string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "examples", "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var frames []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev stream.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		line = strings.ReplaceAll(line, `"id":"a-000001"`, `"id":"`+remoteID+`"`)
		frames = append(frames, fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, line))
	}
	return frames
}

// sseMember is a scripted worker for relay tests: it accepts every
// submission as job j-000001, reports it done with the given report,
// and serves body as that job's event stream. ConnState hooks count
// the connections it accepts. Job and event replies end a few
// milliseconds after their body is flushed, so a client that stops
// reading at the body's last byte closes the reply before its end, as
// it often does against a busy worker.
type sseMember struct {
	ts    *httptest.Server
	conns atomic.Int64
}

func newSSEMember(t *testing.T, report json.RawMessage, body string) *sseMember {
	t.Helper()
	m := &sseMember{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/assays", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusAccepted, service.SubmitResult{ID: "j-000001", Eligible: []string{"die40"}})
	})
	mux.HandleFunc("GET /v1/assays/{id}", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, service.Job{ID: r.PathValue("id"), Status: service.StatusDone,
			Program: "capture-scan", Report: report})
		endLate(w)
	})
	mux.HandleFunc("GET /v1/assays/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, body)
		endLate(w)
	})
	m.ts = httptest.NewUnstartedServer(mux)
	m.ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			m.conns.Add(1)
		}
	}
	m.ts.Start()
	t.Cleanup(m.ts.Close)
	return m
}

// endLate flushes a reply's body and ends the reply 5 ms later.
func endLate(w http.ResponseWriter) {
	w.(http.Flusher).Flush()
	time.Sleep(5 * time.Millisecond)
}

// gatewayEvents submits one job through a gateway over member and
// returns the gateway's SSE body for it, read to its end.
func gatewayEvents(t *testing.T, member string) string {
	t.Helper()
	base := serveGateway(t, MemberSpec{Name: "w0", Addr: member, Profiles: die40()})
	resp, body := do(t, http.MethodPost, base+"/v1/assays", submitBody(t, 7))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var res service.SubmitResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, http.MethodGet, base+"/v1/assays/"+res.ID+"/events", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

// compareFrames reports the first frame where got and want differ.
func compareFrames(t *testing.T, got, want string) {
	t.Helper()
	g, w := strings.SplitAfter(got, "\n\n"), strings.SplitAfter(want, "\n\n")
	for i := range max(len(g), len(w)) {
		var gf, wf string
		if i < len(g) {
			gf = g[i]
		}
		if i < len(w) {
			wf = w[i]
		}
		if gf != wf {
			t.Fatalf("frame %d differs:\n got %q\nwant %q", i, gf, wf)
		}
	}
}

// TestRelayForwardsMemberBytes pins that the gateway relays a member's
// frames as the member's bytes: a payload field stream.Event does not
// know reaches gateway SSE clients byte for byte, and job.* frames
// differ only in carrying the gateway's job ID.
func TestRelayForwardsMemberBytes(t *testing.T) {
	frames := goldenFrames(t, "j-000001")
	frames[2] = strings.Replace(frames[2], `"detail":"load 4 × viable-cell"}`,
		`"detail":"load 4 × viable-cell","phase":"warm"},"novel":[1,{"x":null}]`, 1)
	member := strings.Join(frames, "")
	m := newSSEMember(t, nil, member)
	got := gatewayEvents(t, m.ts.URL)
	compareFrames(t, got, strings.ReplaceAll(member, `"id":"j-000001"`, `"id":"a-000001"`))
}

// TestRelaySkipsBadFrames feeds the relay a frame whose payload is not
// valid JSON, frames whose seq or type disagree with their id: and
// event: lines, and frames an SSE reader would cut at a CR: one in the
// payload, where JSON reads it as whitespace, and one in the type. Each
// is skipped, and gateway subscribers see what they see for any frame
// the relay cannot use: a gap covering its sequence numbers (the
// relay's re-fetch skips it too).
func TestRelaySkipsBadFrames(t *testing.T) {
	frames := goldenFrames(t, "j-000001")[:5]
	frames[2] = "id: 3\nevent: op.started\ndata: {\"seq\":3,\"type\":\"op.started\",\"t\":0\n\n"
	frames = append(frames,
		"id: 6\nevent: op.started\ndata: {\"seq\":6,\"type\":\"op.finished\",\"t\":0}\n\n",
		"id: 7\nevent: op.started\ndata: {\"seq\":8,\"type\":\"op.started\",\"t\":0}\n\n",
		"id: 8\nevent: op.finished\ndata: {\"seq\":8,\"type\":\"op.finished\",\"t\":0}\n\n",
		"id: 9\nevent: op.started\ndata: {\"seq\":9,\"type\":\"op.started\",\r\"t\":0}\n\n",
		"id: 10\nevent: op\rstarted\ndata: {\"seq\":10,\"type\":\"op\\rstarted\",\"t\":0}\n\n",
		"id: 11\nevent: op.finished\ndata: {\"seq\":11,\"type\":\"op.finished\",\"t\":0}\n\n",
		"id: 12\nevent: job.done\ndata: {\"seq\":12,\"type\":\"job.done\",\"t\":0,\"job\":{\"id\":\"j-000001\"}}\n\n",
	)
	m := newSSEMember(t, nil, strings.Join(frames, ""))
	got := gatewayEvents(t, m.ts.URL)
	gap := func(from, to int) string {
		return fmt.Sprintf("event: gap\ndata: {\"type\":\"gap\",\"t\":0,\"gap\":{\"from\":%d,\"to\":%d}}\n\n", from, to)
	}
	rename := func(f string) string { return strings.ReplaceAll(f, "j-000001", "a-000001") }
	want := rename(frames[0]) + rename(frames[1]) + gap(3, 3) + frames[3] + frames[4] +
		gap(6, 7) + frames[7] + gap(9, 10) + frames[10] + rename(frames[11])
	compareFrames(t, got, want)
}

// TestRelayGapKeepsMemberBackfill: a mirror that an upstream gap frame
// moved past seq 1 no longer holds its whole stream, so the relay
// appends no finish record for the job and the mirror keeps its
// events and its member backfill: a subscriber from the start reads
// the frames before the gap back from the member, then the gap the
// member reported, then the frames the mirror kept.
func TestRelayGapKeepsMemberBackfill(t *testing.T) {
	frames := goldenFrames(t, "j-000001")
	gap := "event: gap\ndata: {\"type\":\"gap\",\"t\":0,\"gap\":{\"from\":6,\"to\":7}}\n\n"
	member := strings.Join(frames[:5], "") + gap + strings.Join(frames[7:], "")
	m := newSSEMember(t, nil, member)
	disk, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	g, err := New(Config{Members: []MemberSpec{{Name: "w0", Addr: m.ts.URL, Profiles: die40()}},
		Store: disk, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g.Handler())
	defer gs.Close()
	res, err := g.Submit(service.SubmitRequest{Seed: 7, Program: testProgram(4)})
	if err != nil {
		t.Fatal(err)
	}
	if j, terminal, err := g.WaitTimeout(res.ID, 30*time.Second); err != nil || !terminal || j.Status != service.StatusDone {
		t.Fatalf("job %s: %s terminal=%v err=%v, want done", res.ID, j.Status, terminal, err)
	}
	got := sseBody(t, gs.URL, res.ID, 0)
	g.mu.Lock()
	mirror := g.jobs[res.ID].mirror
	g.mu.Unlock()
	g.Close() // the relay has returned: it appended all it ever will
	rename := func(f string) string { return strings.ReplaceAll(f, "j-000001", res.ID) }
	compareFrames(t, got, rename(strings.Join(frames[:5], ""))+gap+rename(strings.Join(frames[7:], "")))
	if evs := mirror.Events(); len(evs) != len(frames)-7 {
		t.Errorf("mirror keeps %d events, want the %d after the gap", len(evs), len(frames)-7)
	}
	if _, err := disk.Events(res.ID); !errors.Is(err, store.ErrUnknownJob) {
		t.Errorf("log events of %s: %v, want no finish record", res.ID, err)
	}
	if st := disk.Stats(); st.Records != 1 {
		t.Errorf("log holds %d records, want the route record alone", st.Records)
	}
}

// TestGatewaySSEBodyMatchesMember runs a real job through a gateway
// whose member numbers it differently, then compares the two SSE
// bodies of the finished job: frame for frame the gateway serves the
// member's bytes, wall stamps included, except that job.* frames carry
// the gateway's job ID.
func TestGatewaySSEBodyMatchesMember(t *testing.T) {
	_, ws := startWorker(t, die40())
	// Two direct submissions first, so the routed job is a-000003 on
	// the member and a-000001 on the gateway.
	for seed := uint64(1); seed <= 2; seed++ {
		if resp, body := do(t, http.MethodPost, ws.URL+"/v1/assays", submitBody(t, seed)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("direct submit: status %d: %s", resp.StatusCode, body)
		}
	}
	got := gatewayEvents(t, ws.URL)
	_, member := do(t, http.MethodGet, ws.URL+"/v1/assays/a-000003/events", "")
	if !strings.Contains(string(member), `"id":"a-000003"`) {
		t.Fatalf("member stream does not name a-000003:\n%s", member)
	}
	compareFrames(t, got, strings.ReplaceAll(string(member), `"id":"a-000003"`, `"id":"a-000001"`))
}

// TestMemberConnectionReuse pins that member calls keep their
// connections: ten sequential Job calls against one member, each reply
// a ~40 KB chunked body, open one connection between them, not one per
// call; ten sequential relays open two, since each fetches its job's
// record while its stream is still open.
func TestMemberConnectionReuse(t *testing.T) {
	report := json.RawMessage(`{"program":"capture-scan","pad":"` + strings.Repeat("x", 40<<10) + `"}`)
	frames := goldenFrames(t, "j-000001")
	frames[2] = strings.Replace(frames[2], `"detail":"load 4 × viable-cell"`,
		`"detail":"`+strings.Repeat("y", 40<<10)+`"`, 1)
	calls := []struct {
		name  string
		conns int64
		call  func(t *testing.T, g *Gateway, m *Member)
	}{
		{"Job", 1, func(t *testing.T, _ *Gateway, m *Member) {
			if j, err := m.Job(context.Background(), "j-000001"); err != nil || !bytes.Equal(j.Report, report) {
				t.Fatalf("Job: %v (report %d bytes)", err, len(j.Report))
			}
		}},
		{"relay", 2, func(t *testing.T, g *Gateway, m *Member) {
			j := &gwJob{id: "a-000001", member: m, remoteID: "j-000001", mirror: stream.NewRing(),
				done: make(chan struct{})}
			if terminal, err := g.streamOnce(j); !terminal || err != nil {
				t.Fatalf("relay: terminal %v, err %v", terminal, err)
			}
			if j.mirror.Last() != uint64(len(frames)) {
				t.Fatalf("relay mirrored %d events, want %d", j.mirror.Last(), len(frames))
			}
		}},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			m := newSSEMember(t, report, strings.Join(frames, ""))
			g, err := New(Config{Members: []MemberSpec{{Name: "w0", Addr: m.ts.URL, Profiles: die40()}},
				PollInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			for i := 0; i < 10; i++ {
				c.call(t, g, g.members[0])
			}
			if n := m.conns.Load(); n != c.conns {
				t.Errorf("10 sequential %s calls opened %d connections, want %d", c.name, n, c.conns)
			}
		})
	}
}

// TestMemberPoolHoldsConcurrentCalls pins the member pool's size: two
// rounds of memberIdleConns calls held open together at the member, as
// a busy gateway's relays, record fetches and forwards are, open
// memberIdleConns connections between them. With the default
// transport's 2 idle connections per host, the second round re-dials
// all but two.
func TestMemberPoolHoldsConcurrentCalls(t *testing.T) {
	arrived := make(chan struct{})
	release := make(chan struct{}, memberIdleConns)
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-release
		reply(w, http.StatusOK, service.Job{ID: r.PathValue("id"), Status: service.StatusDone})
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	defer close(release) // a failed round must not leave handlers blocked
	m, err := NewMember(MemberSpec{Name: "w0", Addr: ts.URL, Profiles: die40()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.client.CloseIdleConnections()
	for round := 0; round < 2; round++ {
		errs := make(chan error, memberIdleConns)
		for i := 0; i < memberIdleConns; i++ {
			go func() {
				_, err := m.Job(context.Background(), "j-000001")
				errs <- err
			}()
		}
		for i := 0; i < memberIdleConns; i++ {
			select {
			case <-arrived:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: %d of %d calls reached the member", round, i, memberIdleConns)
			}
		}
		for i := 0; i < memberIdleConns; i++ {
			release <- struct{}{}
		}
		for i := 0; i < memberIdleConns; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if n := conns.Load(); n != memberIdleConns {
		t.Errorf("two rounds of %d concurrent calls opened %d connections, want %d",
			memberIdleConns, n, memberIdleConns)
	}
}

// TestRelayLostJobEndsOnClose pins the lost-job path: a member that
// 404s a job's events gets the job failed by its relay, with the
// job.failed frame ending the stream, and Close still returns at once.
// The failed job is persisted, so the frame may come back from the
// gateway's log as its bytes: the test decodes it.
func TestRelayLostJobEndsOnClose(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	g, err := New(Config{Members: []MemberSpec{{Name: "w0", Addr: ts.URL, Profiles: die40()}},
		PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	j := &gwJob{id: "a-000001", member: g.members[0], remoteID: "j-000001",
		done: make(chan struct{}), mirror: stream.NewRing(),
		snap: service.Job{ID: "a-000001", Status: service.StatusQueued, Seed: 7, Member: "w0"}}
	g.wg.Add(1)
	go g.relay(j)
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the relay never failed the lost job")
	}
	if j.snap.Status != service.StatusFailed || !strings.Contains(j.snap.Error, "lost") || j.snap.Seed != 7 {
		t.Errorf("lost job snapshot %+v, want failed as lost with its seed kept", j.snap)
	}
	sub := j.mirror.Subscribe(0)
	evs := collectSub(sub)
	sub.Cancel()
	if len(evs) != 1 || evs[0].Type != stream.JobFailed || decodeEvent(t, evs[0]).Err != j.snap.Error {
		t.Errorf("lost job stream %+v, want one job.failed carrying %q", evs, j.snap.Error)
	}
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return after the relay failed a lost job")
	}
}

// TestGatewayCloseWithoutDrain pins that Close, without a Drain first,
// stops following an unfinished job at once: the held stub member
// keeps the job queued, and nothing the gateway asks it about the job
// returns until release.
func TestGatewayCloseWithoutDrain(t *testing.T) {
	stub := newStubMember(t, service.Stats{}, accept)
	// A Close that returned leaves no request held; a failed one must
	// not leave the stub's shutdown waiting on its handlers.
	defer stub.holdJobs()()
	g, err := New(Config{Members: []MemberSpec{{Name: "w0", Addr: stub.ts.URL, Profiles: die40()}},
		PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(service.SubmitRequest{Seed: 1, Program: testProgram(4)}); err != nil {
		t.Fatal(err)
	}
	// The pause only lets the gateway reach the member before Close,
	// which must return either way.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return while the member held the job")
	}
}

// TestGatewayCloseCancelsMemberCalls pins that Close cancels the member
// calls in flight: with a member whose /v1/stats never answers and a
// 10 ms poll, Close returns within a second instead of waiting out the
// poller's call.
func TestGatewayCloseCancelsMemberCalls(t *testing.T) {
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release) // a Close that failed must not leave the handler held
	g, err := New(Config{Members: []MemberSpec{{Name: "w0", Addr: ts.URL, Profiles: die40()}},
		PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the poller never called the member")
	}
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close did not return while a member call hung")
	}
}

// TestGatewayFollowsJobOnce pins that the gateway follows a routed job
// with one relay: for each of N jobs a client submits, reads the
// events to their end and GETs the job, the member sees one
// submission, one event stream and one record fetch, and no long-poll,
// and each GET after the stream ended is the finished job.
func TestGatewayFollowsJobOnce(t *testing.T) {
	const n = 5
	addr, routes := countedMember(t)
	base := serveGateway(t, MemberSpec{Name: "w0", Addr: addr, Profiles: die40()})
	for i := 0; i < n; i++ {
		resp, body := do(t, http.MethodPost, base+"/v1/assays", submitBody(t, 100+uint64(i)))
		var res service.SubmitResult
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &res) != nil {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		if resp, body := do(t, http.MethodGet, base+"/v1/assays/"+res.ID+"/events", ""); resp.StatusCode != http.StatusOK ||
			!strings.Contains(string(body), "event: job.done\n") {
			t.Fatalf("events of %s: status %d, no job.done frame", res.ID, resp.StatusCode)
		}
		resp, body = do(t, http.MethodGet, base+"/v1/assays/"+res.ID, "")
		var j service.Job
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &j) != nil || j.Status != service.StatusDone {
			t.Errorf("GET %s after its stream ended: status %d: %.120s, want done", res.ID, resp.StatusCode, body)
		}
	}
	want := map[string]int{"POST /v1/assays": n, "events": n, "get": n}
	if got := routes(); !reflect.DeepEqual(got, want) {
		t.Errorf("member requests by route %v, want %v", got, want)
	}
}

// countedMember serves a die40 worker whose requests are counted by
// route: the submission, "events" streams, "long-poll" waits and "get"
// record fetches. routes returns a copy of the counts.
func countedMember(t *testing.T) (addr string, routes func() map[string]int) {
	t.Helper()
	svc, err := service.New(service.FleetSpec{Profiles: die40()}.ServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	counts := make(map[string]int)
	h := svc.Handler()
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := r.Method + " " + r.URL.Path
		switch {
		case strings.HasSuffix(r.URL.Path, "/events"):
			route = "events"
		case r.URL.Query().Has("wait"):
			route = "long-poll"
		case strings.HasPrefix(r.URL.Path, "/v1/assays/"):
			route = "get"
		}
		mu.Lock()
		counts[route]++
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ws.Close(); svc.Close() })
	return ws.URL, func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(counts)
	}
}

// TestGatewayFollowsLongJobOnce: a mirror keeps every event it is fed,
// so the longest stream a member serves — an assay.MaxOps-op program's
// — reaches a client that subscribes from 0 only after ?wait=1 reports
// the job done whole and gap-free, and the member sees one event
// stream for the job, the relay's: nothing is fetched back.
func TestGatewayFollowsLongJobOnce(t *testing.T) {
	addr, routes := countedMember(t)
	base := serveGateway(t, MemberSpec{Name: "w0", Addr: addr, Profiles: die40()})
	raw, err := json.Marshal(service.SubmitRequest{Seed: 7, Program: maxOpsProgram()})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := do(t, http.MethodPost, base+"/v1/assays", string(raw))
	var res service.SubmitResult
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &res) != nil {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	resp, body = do(t, http.MethodGet, base+"/v1/assays/"+res.ID+"?wait=1", "")
	var j service.Job
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &j) != nil || j.Status != service.StatusDone {
		t.Fatalf("wait: status %d: %.200s, want done", resp.StatusCode, body)
	}
	evs := readSSE(t, base, res.ID, 0, -1)
	if len(evs) != maxOpsEvents {
		t.Fatalf("replayed %d events, want %d", len(evs), maxOpsEvents)
	}
	for i, ev := range evs {
		if ev.Type == stream.Gap || ev.Seq != uint64(i+1) {
			t.Fatalf("event %d is %s seq %d, want seq %d", i, ev.Type, ev.Seq, i+1)
		}
	}
	if got := routes()["events"]; got != 1 {
		t.Errorf("member served %d event streams for the job, want 1 (the relay's)", got)
	}
}
