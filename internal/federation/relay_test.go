package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"biochip/internal/service"
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
// connection: ten sequential Job, WaitTimeout and relayed-stream calls
// against one member, each reply a ~40 KB chunked body, open one
// connection between them, not one per call.
func TestMemberConnectionReuse(t *testing.T) {
	report := json.RawMessage(`{"program":"capture-scan","pad":"` + strings.Repeat("x", 40<<10) + `"}`)
	frames := goldenFrames(t, "j-000001")
	frames[2] = strings.Replace(frames[2], `"detail":"load 4 × viable-cell"`,
		`"detail":"`+strings.Repeat("y", 40<<10)+`"`, 1)
	calls := []struct {
		name string
		call func(t *testing.T, g *Gateway, m *Member)
	}{
		{"Job", func(t *testing.T, _ *Gateway, m *Member) {
			if j, err := m.Job("j-000001"); err != nil || !bytes.Equal(j.Report, report) {
				t.Fatalf("Job: %v (report %d bytes)", err, len(j.Report))
			}
		}},
		{"WaitTimeout", func(t *testing.T, _ *Gateway, m *Member) {
			if j, err := m.WaitTimeout("j-000001", time.Second); err != nil || !bytes.Equal(j.Report, report) {
				t.Fatalf("WaitTimeout: %v (report %d bytes)", err, len(j.Report))
			}
		}},
		{"relay", func(t *testing.T, g *Gateway, m *Member) {
			j := &gwJob{id: "a-000001", member: m, remoteID: "j-000001", mirror: stream.NewRing(0)}
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
			if n := m.conns.Load(); n != 1 {
				t.Errorf("10 sequential %s calls opened %d connections, want 1", c.name, n)
			}
		})
	}
}

// TestMemberPoolHoldsConcurrentCalls pins the member pool's size: two
// rounds of memberIdleConns calls held open together at the member, as
// a busy gateway's watchers, relays and forwards are, open
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
				_, err := m.Job("j-000001")
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

// TestRelayLostJobEndsOnClose pins that Close returns while a
// relay waits for the watcher to fail a job its member lost. The
// member 404s the job's events, and no watcher runs, as when one
// returned on Close without failing the job.
func TestRelayLostJobEndsOnClose(t *testing.T) {
	asked := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case asked <- struct{}{}:
		default:
		}
		http.NotFound(w, r)
	}))
	defer ts.Close()
	g, err := New(Config{Members: []MemberSpec{{Name: "w0", Addr: ts.URL, Profiles: die40()}},
		PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	j := &gwJob{id: "a-000001", member: g.members[0], remoteID: "j-000001", done: make(chan struct{})}
	g.mirrorFor(j)
	select {
	case <-asked:
	case <-time.After(10 * time.Second):
		t.Fatal("the relay never asked the member for the job's events")
	}
	// Nothing shows when the relay starts waiting on the 404; the pause
	// only lets it get there before Close, which must return either way.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return: the relay still waits for the lost job to fail")
	}
}
