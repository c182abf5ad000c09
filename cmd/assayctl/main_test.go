package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"biochip/internal/federation"
	"biochip/internal/obs"
	"biochip/internal/service"
	"biochip/internal/store"
	"biochip/internal/stream"
)

// TestParseQueueFullDegrades pins the 429-body contract: whatever a
// member, gateway or intermediary proxy mangles the refusal body into,
// the Client must still read a *service.QueueFullError, at worst with an
// empty backlog (rendering as nothing), so the retry loop falls back to
// the plain Retry-After backoff instead of erroring out of a retryable
// situation.
func TestParseQueueFullDegrades(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // renderBacklog output
	}{
		{"full", `{"error":"queue full","queued":16,"queue_depth":16,"backlog":[{"profiles":["die40"],"queued":12},{"profiles":["die40","die48"],"queued":4}]}`,
			", 16/16 queued (die40: 12, die40+die48: 4)"},
		{"no backlog", `{"error":"queue full","queued":3,"queue_depth":8}`, ", 3/8 queued"},
		{"empty object", `{}`, ""},
		{"empty body", ``, ""},
		{"truncated", `{"error":"queue full","queued":16,"queue_de`, ""},
		{"wrong types", `{"queued":"sixteen","backlog":"nope"}`, ""},
		{"negative queued", `{"queued":-2,"queue_depth":8}`, ""},
		{"not json", `<html>502 Bad Gateway</html>`, ""},
		{"backlog missing profiles", `{"queued":5,"queue_depth":8,"backlog":[{"queued":5}]}`,
			", 5/8 queued (: 5)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			c := &service.Client{Addr: srv.URL}
			_, err := c.Submit(context.Background(), service.SubmitRequest{Seed: 1})
			var qf *service.QueueFullError
			if !errors.As(err, &qf) {
				t.Fatalf("Submit: %v, want a *service.QueueFullError", err)
			}
			if got := renderBacklog(qf); got != tc.want {
				t.Errorf("renderBacklog = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestSubmitBackoffMalformed429 drives submitWithBackoff against a
// server whose 429 body is garbage: the client must still honor
// Retry-After, retry, and succeed on the next attempt — a mangled
// refusal body is cosmetic, never fatal.
func TestSubmitBackoffMalformed429(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"queued": "not a numb`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"a-000001","eligible":["die40"]}`))
	}))
	defer srv.Close()

	sub, err := submitWithBackoff(&service.Client{Addr: srv.URL}, service.SubmitRequest{Seed: 1}, 3)
	if err != nil {
		t.Fatalf("submitWithBackoff: %v", err)
	}
	if sub.ID != "a-000001" || hits != 2 {
		t.Errorf("sub.ID = %q after %d hits, want a-000001 after 2", sub.ID, hits)
	}
}

// TestSubmitBackoffExhausted pins the failure shape when every attempt
// is refused: the error carries the parsed backlog when the body was
// sound, and stays clean when it was not.
func TestSubmitBackoffExhausted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"queue full","queued":8,"queue_depth":8}`))
	}))
	defer srv.Close()
	_, err := submitWithBackoff(&service.Client{Addr: srv.URL}, service.SubmitRequest{}, 1)
	if err == nil || !strings.Contains(err.Error(), "8/8 queued") {
		t.Errorf("exhausted error = %v, want it to carry the 8/8 backlog", err)
	}
}

// TestRenderTrace pins the tree rendering: children indent under their
// parents in recording order, spans with a foreign parent root the
// tree, and open spans render as such.
func TestRenderTrace(t *testing.T) {
	doc := obs.TraceDoc{
		Job:    "a-000007",
		Parent: "f-000001",
		Spans: []obs.Span{
			{ID: "a-000007:1", Parent: "f-000001", Name: "job", Start: 1.0, End: 1.5},
			{ID: "a-000007:2", Parent: "a-000007:1", Name: "queue", Start: 1.0, End: 1.1},
			{ID: "a-000007:3", Parent: "a-000007:1", Name: "execute", Start: 1.1, End: 1.4,
				Attrs: []obs.Attr{{K: "profile", V: "die40"}}},
			{ID: "a-000007:4", Parent: "a-000007:1", Name: "finish", Start: 1.4},
		},
	}
	lines := renderTrace(doc)
	if len(lines) != 5 {
		t.Fatalf("%d lines, want 5: %q", len(lines), lines)
	}
	if want := "trace a-000007: 4 spans, parent f-000001"; lines[0] != want {
		t.Errorf("header %q, want %q", lines[0], want)
	}
	if !strings.HasPrefix(lines[1], "  job") {
		t.Errorf("root line %q, want job at depth 1", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    queue") || !strings.Contains(lines[2], "100.000ms") {
		t.Errorf("queue line %q, want indented with 100.000ms", lines[2])
	}
	if !strings.Contains(lines[3], "profile=die40") {
		t.Errorf("execute line %q, want profile attr", lines[3])
	}
	if !strings.Contains(lines[4], "open") {
		t.Errorf("finish line %q, want open duration", lines[4])
	}
}

// TestRenderGatewayStats pins the gateway lines of stats: the routed-job
// counters, then a drain, the route log with its failed appends and the
// gateway cache only when set, then one line per member.
func TestRenderGatewayStats(t *testing.T) {
	st := federation.Stats{
		Gateway: federation.GatewayStats{Members: 2, Jobs: 5, Forwarded: 4, Done: 3, Failed: 1, Recovered: 2},
		Members: []federation.MemberStats{
			{Member: "w0", Addr: "http://a", Reachable: true},
			{Member: "w1", Addr: "http://b"},
		},
	}
	members := []string{
		"member   w0 @ http://a: reachable",
		"member   w1 @ http://b: UNREACHABLE",
	}
	plain := append([]string{
		"gateway  2 members, 5 jobs routed (forwarded 4, done 3, failed 1, recovered 2)",
	}, members...)
	if got := renderGatewayStats(st); strings.Join(got, "\n") != strings.Join(plain, "\n") {
		t.Errorf("plain gateway lines:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(plain, "\n"))
	}

	st.Gateway.PersistErrors = 2
	st.Gateway.Draining = true
	st.Gateway.Store = &store.Stats{Kind: "disk", Dir: "/data", Segments: 1, Bytes: 4096, Records: 9}
	st.Gateway.Cache = &service.CacheStats{Entries: 3, Hits: 1, Misses: 4, Coalesced: 2}
	full := append([]string{
		"gateway  2 members, 5 jobs routed (forwarded 4, done 3, failed 1, recovered 2, 2 route appends FAILED)",
		"gateway  draining: admitting nothing, finishing routed jobs",
		"gateway  route log disk /data: 9 records in 1 segments, 4096 bytes",
		"gateway  cache 3 entries, hits 1, misses 4, coalesced 2",
	}, members...)
	if got := renderGatewayStats(st); strings.Join(got, "\n") != strings.Join(full, "\n") {
		t.Errorf("full gateway lines:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(full, "\n"))
	}
}

// TestRenderEvent pins watch's line for every event type, the
// synthetic gap and shutdown frames and an unknown type included.
func TestRenderEvent(t *testing.T) {
	for _, tc := range []struct {
		ev   stream.Event
		want string
	}{
		{stream.Event{Seq: 1, Type: stream.JobPlaced, Job: &stream.JobInfo{
			ID: "a-000001", Program: "capture-scan", Seed: 7, Eligible: []string{"small", "large"}}},
			"#1         0.00s  placed a-000001 (capture-scan, seed 7) on profiles small, large"},
		{stream.Event{Seq: 2, Type: stream.JobStarted, Job: &stream.JobInfo{Profile: "small"}},
			"#2         0.00s  started on profile small"},
		{stream.Event{Seq: 3, Type: stream.OpStarted, T: 1.5, Op: &stream.OpInfo{Kind: "load", Detail: "load 10 cells"}},
			"#3         1.50s  op 0 load: load 10 cells"},
		{stream.Event{Seq: 4, Type: stream.OpFinished, T: 2.25, Op: &stream.OpInfo{Kind: "load", Detail: "10 loaded"}},
			"#4         2.25s  op 0 load done: 10 loaded"},
		{stream.Event{Seq: 5, Type: stream.ScanRows, T: 12.5, Scan: &stream.ScanChunk{Scan: 1, Batches: 2,
			Rows: []stream.Detection{{Detected: true}, {}, {Detected: true}}}},
			"#5        12.50s  scan 1 rows 1/2: 3 sites, 2 detected"},
		{stream.Event{Seq: 6, Type: stream.PlanExecuted, T: 20, Plan: &stream.PlanInfo{Planner: "greedy", Makespan: 12, Moves: 40}},
			"#6        20.00s  plan executed (greedy): makespan 12, 40 moves"},
		{stream.Event{Seq: 7, Type: stream.JobDone, T: 30, Job: &stream.JobInfo{Duration: 30, Trapped: 9, Steps: 12, ScanErrors: 1}},
			"#7        30.00s  done: 30.00s simulated, 9 trapped, 12 steps, 1 scan errors"},
		{stream.Event{Seq: 7, Type: stream.JobFailed, T: 3, Err: "injected"},
			"#7         3.00s  FAILED: injected"},
		{stream.Event{Type: stream.Gap, Gap: &stream.GapInfo{From: 3, To: 6}},
			"#0         0.00s  GAP: events 3–6 lost upstream or skipped by a relay, and not recovered"},
		{stream.Event{Type: stream.Shutdown},
			"#0         0.00s  server draining: stream closed"},
		{stream.Event{Seq: 8, Type: "future.kind"},
			"#8         0.00s  future.kind"},
	} {
		if got := renderEvent(tc.ev); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.ev.Type, got, tc.want)
		}
	}
}

// TestStreamEventsLineEnds pins watch's SSE reader against both line
// ends the SSE format allows: a proxy may rewrite LF to CRLF, and the
// space after "data:" is optional. Every framing must render both
// events, move the cursor and end on the terminal event — also when a
// frame whose payload is not valid JSON sits between them, which watch
// skips.
func TestStreamEventsLineEnds(t *testing.T) {
	frames := []struct {
		id, typ, data string
	}{
		{"1", stream.JobStarted, `{"seq":1,"type":"job.started","t":0,"job":{"id":"a-000001","profile":"default"}}`},
		{"2", stream.JobDone, `{"seq":2,"type":"job.done","t":1.5,"job":{"id":"a-000001","status":"done"}}`},
	}
	for _, tc := range []struct {
		name, eol, sep string
		between        string // written between the two frames
	}{
		{"LF", "\n", ": ", ""},
		{"CRLF", "\r\n", ": ", ""},
		{"LF no space", "\n", ":", ""},
		{"CRLF no space", "\r\n", ":", ""},
		{"LF invalid JSON", "\n", ": ", "id: 2\nevent: op.started\ndata: {\"seq\":2,\"type\":\"op.started\",\n\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/event-stream")
				for i, f := range frames {
					if i == 1 {
						fmt.Fprint(w, tc.between)
					}
					fmt.Fprintf(w, "id%s%s%sevent%s%s%sdata%s%s%s%s",
						tc.sep, f.id, tc.eol, tc.sep, f.typ, tc.eol, tc.sep, f.data, tc.eol, tc.eol)
				}
			}))
			defer srv.Close()
			var last uint64
			terminal, failed, err := streamEvents(&service.Client{Addr: srv.URL}, "a-000001", &last, "json")
			if err != nil {
				t.Fatal(err)
			}
			if !terminal || failed {
				t.Errorf("terminal %v failed %v, want a clean terminal event", terminal, failed)
			}
			if last != 2 {
				t.Errorf("cursor at #%d, want #2", last)
			}
		})
	}
}

// TestJobIDStaysOneSegment pins that a job ID is one path segment and a
// flag value one query value: get, wait, watch and trace of "../stats"
// ask the worker about a job of that name (it knows none) instead of
// reaching /v1/stats, and a list cursor holding "&status=sideways" is
// one cursor, not a second, invalid, filter.
func TestJobIDStaysOneSegment(t *testing.T) {
	svc, err := service.New(service.FleetSpec{Profiles: []service.FleetProfileSpec{
		{Name: "die40", Shards: 1, Cols: 40, Rows: 40}}}.ServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := &service.Client{Addr: srv.URL}
	for _, cmd := range []struct {
		name string
		run  func(*service.Client, []string) error
		args []string
	}{
		{"get", cmdGet, []string{"../stats"}},
		{"wait", cmdWait, []string{"../stats"}},
		{"watch", cmdWatch, []string{"-retries", "0", "../stats"}},
		{"trace", cmdTrace, []string{"../stats"}},
	} {
		// Fatal: were the ID not escaped, wait would poll /v1/stats for
		// good, as it never reads a terminal job there.
		if err := cmd.run(c, cmd.args); !errors.Is(err, service.ErrUnknownJob) {
			t.Fatalf("%s ../stats: %v, want the unknown-job refusal", cmd.name, err)
		}
	}
	if err := cmdGet(c, []string{"../stats"}); err == nil || err.Error() != "unknown job" {
		t.Errorf("get ../stats: %v, want the worker's \"unknown job\"", err)
	}
	if err := cmdList(c, []string{"-after", "a-000001&status=sideways"}); err != nil {
		t.Errorf("list with an '&' in its cursor: %v", err)
	}
}

// TestWaitRefusesNonJobReply pins that wait polls again only on a
// queued or running record of the job it waits for: a 200 reply that
// is no job record at all, an empty object or a stats body, is an
// error that names what came back, not a reason to poll at once and
// for good.
func TestWaitRefusesNonJobReply(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"empty object", `{}`, `(id "")`},
		{"stats body", `{"shards":2,"queue_depth":64,"queued":0,"running":0,"done":1,"failed":0}`, `(id "")`},
		{"other job", `{"id":"a-000002","status":"running"}`, `(id "a-000002")`},
		{"unknown status", `{"id":"a-000001","status":"sideways"}`, `status "sideways"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var polls atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				polls.Add(1)
				fmt.Fprint(w, tc.body)
			}))
			defer srv.Close()
			c := &service.Client{Addr: srv.URL}
			done := make(chan error, 1)
			go func() { done <- cmdWait(c, []string{"a-000001"}) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("wait: %v, want an error naming %s", err, tc.want)
				}
				if n := polls.Load(); n != 1 {
					t.Errorf("wait polled %d times, want 1", n)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("wait still polling after 5 s (%d polls)", polls.Load())
			}
		})
	}
}

// TestVerboseLogsEveryRequest pins -v over watch: the listing that
// resolves "latest", the event stream and its reconnect after a clean
// end without a terminal frame each log one request line.
func TestVerboseLogsEveryRequest(t *testing.T) {
	var streams atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/assays" {
			fmt.Fprint(w, `{"jobs":[{"id":"a-000001","status":"running"}]}`)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		if streams.Add(1) == 1 {
			fmt.Fprint(w, "id: 1\nevent: job.started\ndata: {\"seq\":1,\"type\":\"job.started\",\"t\":0}\n\n")
			return
		}
		fmt.Fprint(w, "id: 2\nevent: job.done\ndata: {\"seq\":2,\"type\":\"job.done\",\"t\":0}\n\n")
	}))
	defer srv.Close()
	var log bytes.Buffer
	c := &service.Client{Addr: srv.URL, HTTP: &http.Client{Transport: logTransport{&log}}}
	if err := cmdWatch(c, []string{"-o", "json", "latest"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	want := []string{
		"assayctl: GET " + srv.URL + "/v1/assays?limit=1&order=desc → 200 in ",
		"assayctl: GET " + srv.URL + "/v1/assays/a-000001/events → 200 in ",
		"assayctl: GET " + srv.URL + "/v1/assays/a-000001/events → 200 in ",
	}
	if len(lines) != len(want) {
		t.Fatalf("-v logged %d lines, want %d:\n%s", len(lines), len(want), log.String())
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, want[i]) {
			t.Errorf("line %d: %q, want prefix %q", i, line, want[i])
		}
	}
}
