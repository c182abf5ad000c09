package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"biochip/internal/federation"
	"biochip/internal/obs"
	"biochip/internal/service"
	"biochip/internal/store"
	"biochip/internal/stream"
)

// TestParseQueueFullDegrades pins the 429-body contract: whatever a
// member, gateway or intermediary proxy mangles the refusal body into,
// parsing must degrade to a zero value (rendering as nothing) so the
// retry loop falls back to the plain Retry-After backoff instead of
// erroring out of a retryable situation.
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
			qf := parseQueueFull(strings.NewReader(tc.body))
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

	sub, err := submitWithBackoff(srv.URL, []byte(`{"seed":1,"program":{}}`), 3)
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
	_, err := submitWithBackoff(srv.URL, []byte(`{}`), 1)
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
	st.Gateway.Cache = &service.CacheStats{Entries: 3, Capacity: 256, Hits: 1, Misses: 4, Coalesced: 2}
	full := append([]string{
		"gateway  2 members, 5 jobs routed (forwarded 4, done 3, failed 1, recovered 2, 2 route appends FAILED)",
		"gateway  draining: admitting nothing, finishing routed jobs",
		"gateway  route log disk /data: 9 records in 1 segments, 4096 bytes",
		"gateway  cache 3/256 entries, hits 1, misses 4, coalesced 2",
	}, members...)
	if got := renderGatewayStats(st); strings.Join(got, "\n") != strings.Join(full, "\n") {
		t.Errorf("full gateway lines:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(full, "\n"))
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
			terminal, failed, err := streamEvents(srv.URL, "a-000001", &last, "json")
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
