package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"biochip/internal/assay"
	"biochip/internal/service"
)

// role is one assayd role under the HTTP conformance test. Both serve
// the API through service.NewHandler, so every request below must get
// the same status, headers and body shape from either.
type role struct {
	name string
	// member is the member name job records carry ("" on a worker,
	// where the field is absent).
	member string
	// start serves a fresh instance over one die40 worker and returns
	// its base URL and the Backend behind it.
	start func(t *testing.T) (string, service.Backend)
	// full serves an instance whose queue is (or soon is) full.
	full func(t *testing.T) string
}

func roles() []role {
	return []role{
		{
			name: "worker",
			start: func(t *testing.T) (string, service.Backend) {
				svc, ts := startWorker(t, die40())
				return ts.URL, svc
			},
			full: func(t *testing.T) string {
				// One shard and one queue slot: while the shard runs a job
				// and another waits, the next distinct submission is 429.
				cfg := service.FleetSpec{Queue: 1, Profiles: []service.FleetProfileSpec{
					{Name: "die40", Shards: 1, Cols: 40, Rows: 40}}}.ServiceConfig()
				svc, err := service.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(svc.Handler())
				t.Cleanup(func() { ts.Close(); svc.Close() })
				return ts.URL
			},
		},
		{
			name:   "gateway",
			member: "w0",
			start: func(t *testing.T) (string, service.Backend) {
				g := startGateway(t, 1, die40())
				gs := httptest.NewServer(g.Handler())
				t.Cleanup(gs.Close)
				return gs.URL, g
			},
			full: func(t *testing.T) string {
				full := newStubMember(t, service.Stats{}, func(int) (int, interface{}) {
					return http.StatusTooManyRequests, service.ErrorBody{
						Error: "queue full", Queued: intp(8), QueueDepth: 8,
						Backlog: []service.ClassStats{{Profiles: []string{"die40"}, Queued: 8}},
					}
				})
				return serveGateway(t, MemberSpec{Name: "w0", Addr: full.ts.URL, Profiles: die40()})
			},
		},
	}
}

// serveGateway serves a gateway over the given members, polling only on
// demand, and returns its base URL.
func serveGateway(t *testing.T, members ...MemberSpec) string {
	t.Helper()
	g, err := New(Config{Members: members, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gs := httptest.NewServer(g.Handler())
	t.Cleanup(gs.Close)
	return gs.URL
}

// do sends one request and returns the response with its body read.
func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// submitBody is a POST /v1/assays body for testProgram(4) under seed.
func submitBody(t *testing.T, seed uint64) string {
	t.Helper()
	raw, err := json.Marshal(service.SubmitRequest{Seed: seed, Program: testProgram(4)})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestHTTPConformance runs the same requests against a worker and a
// gateway: the error mapping (statuses, Retry-After, the JSON error
// envelope), refused requests consuming no job ID, job records with the
// member field only on the gateway, listing pagination, queue-full
// backpressure and the drain refusal.
func TestHTTPConformance(t *testing.T) {
	for _, r := range roles() {
		t.Run(r.name, func(t *testing.T) {
			base, b := r.start(t)
			for _, tc := range []struct {
				name, method, path, body string
				want                     int
			}{
				{"malformed json", http.MethodPost, "/v1/assays", `{`, http.StatusBadRequest},
				{"empty program", http.MethodPost, "/v1/assays", `{"seed":1,"program":{"name":"x","ops":[]}}`, http.StatusBadRequest},
				{"invalid op order", http.MethodPost, "/v1/assays", `{"seed":1,"program":{"name":"x","ops":[{"op":"capture"}]}}`, http.StatusBadRequest},
				{"impossible program", http.MethodPost, "/v1/assays", `{"seed":1,"program":{"name":"x","requirements":{"min_cols":4096},"ops":[{"op":"load","kind":"viable-cell","count":1}]}}`, http.StatusUnprocessableEntity},
				{"unknown job", http.MethodGet, "/v1/assays/a-999999", "", http.StatusNotFound},
				{"unknown job long-poll", http.MethodGet, "/v1/assays/a-999999?wait=1", "", http.StatusNotFound},
				{"wrong method", http.MethodDelete, "/v1/assays", "", http.StatusMethodNotAllowed},
				{"bad status filter", http.MethodGet, "/v1/assays?status=sideways", "", http.StatusBadRequest},
				{"bad list limit", http.MethodGet, "/v1/assays?limit=-2", "", http.StatusBadRequest},
				{"bad order", http.MethodGet, "/v1/assays?order=sideways", "", http.StatusBadRequest},
				{"bad resume cursor", http.MethodGet, "/v1/assays/a-999999/events?after=x", "", http.StatusBadRequest},
				{"events for unknown job", http.MethodGet, "/v1/assays/a-999999/events", "", http.StatusNotFound},
				{"trace for unknown job", http.MethodGet, "/v1/assays/a-999999/trace", "", http.StatusNotFound},
				{"metrics with obs disabled", http.MethodGet, "/v1/metrics", "", http.StatusNotFound},
				{"oversized body", http.MethodPost, "/v1/assays", `{"seed":1,"program":{"name":"` + strings.Repeat("x", 1<<20) +
					`","ops":[{"op":"load","kind":"viable-cell","count":1}]}}`, http.StatusRequestEntityTooLarge},
				{"too many ops", http.MethodPost, "/v1/assays", `{"seed":1,"program":{"name":"x","ops":[{"op":"load","kind":"viable-cell","count":1},{"op":"capture"}` +
					strings.Repeat(`,{"op":"scan","averaging":1}`, assay.MaxOps-1) + `]}}`, http.StatusBadRequest},
			} {
				resp, body := do(t, tc.method, base+tc.path, tc.body)
				if resp.StatusCode != tc.want {
					t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
					continue
				}
				if tc.want == http.StatusMethodNotAllowed {
					continue // the mux's own plain-text reply
				}
				var eb service.ErrorBody
				if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
					t.Errorf("%s: body %q is not the JSON error envelope", tc.name, body)
				}
			}

			// Five jobs, run to completion through the long-poll.
			var ids []string
			for i := 0; i < 5; i++ {
				resp, body := do(t, http.MethodPost, base+"/v1/assays", submitBody(t, 900+uint64(i)))
				var res service.SubmitResult
				if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &res) != nil {
					t.Fatalf("submit %d: status %d (%s)", i, resp.StatusCode, body)
				}
				ids = append(ids, res.ID)
			}
			if ids[0] != "a-000001" {
				t.Errorf("first job after the refused requests is %s, want a-000001", ids[0])
			}
			for _, id := range ids {
				resp, body := do(t, http.MethodGet, base+"/v1/assays/"+id+"?wait=1&timeout=30", "")
				checkJobBody(t, r, "long-poll", resp, body, id)
				var j service.Job
				if err := json.Unmarshal(body, &j); err != nil || j.Status != service.StatusDone {
					t.Fatalf("job %s: %s (%s)", id, j.Status, j.Error)
				}
			}
			resp, body := do(t, http.MethodGet, base+"/v1/assays/"+ids[0], "")
			checkJobBody(t, r, "get", resp, body, ids[0])
			checkPaging(t, r, base, ids)

			// Draining refuses submissions with 503 + Retry-After and
			// flips health to 503.
			b.Drain()
			resp, body = do(t, http.MethodPost, base+"/v1/assays", submitBody(t, 999))
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
				t.Errorf("submit while draining: status %d, Retry-After %q (%s)",
					resp.StatusCode, resp.Header.Get("Retry-After"), body)
			}
			if resp, body := do(t, http.MethodGet, base+"/v1/healthz", ""); resp.StatusCode != http.StatusServiceUnavailable ||
				!strings.Contains(string(body), `"status":"draining"`) {
				t.Errorf("healthz while draining: status %d (%s)", resp.StatusCode, body)
			}
		})
		t.Run(r.name+"/queue full", func(t *testing.T) {
			base := r.full(t)
			for i := 0; i < 200; i++ {
				resp, body := do(t, http.MethodPost, base+"/v1/assays", submitBody(t, 5000+uint64(i)))
				switch resp.StatusCode {
				case http.StatusAccepted:
					continue
				case http.StatusTooManyRequests:
					var eb service.ErrorBody
					if ra := resp.Header.Get("Retry-After"); ra != "1" {
						t.Errorf("429 Retry-After = %q, want \"1\"", ra)
					}
					if err := json.Unmarshal(body, &eb); err != nil || eb.Queued == nil || eb.QueueDepth == 0 {
						t.Errorf("429 body %s lacks the queue fill", body)
					}
					return
				default:
					t.Fatalf("submit: status %d (%s)", resp.StatusCode, body)
				}
			}
			t.Fatal("the bounded queue never answered 429")
		})
	}

	// A gateway with no reachable member is unavailable: 503, and no
	// Retry-After, since the same gateway cannot take the job soon.
	t.Run("gateway/no members", func(t *testing.T) {
		dead := newStubMember(t, service.Stats{}, accept)
		dead.ts.Close()
		base := serveGateway(t, MemberSpec{Name: "dead", Addr: dead.ts.URL, Profiles: die40()})
		resp, body := do(t, http.MethodPost, base+"/v1/assays", submitBody(t, 1))
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "" {
			t.Errorf("status %d, Retry-After %q, want 503 without (%s)",
				resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
		if !strings.Contains(string(body), ErrNoMembers.Error()) {
			t.Errorf("body %s does not name %v", body, ErrNoMembers)
		}
	})
}

// TestGatewayReencodedBodyTooLarge: a 307,285-byte submission whose
// program name is 300 KiB of '<' is under the 1 MiB body bound, so a
// worker accepts it, but a gateway forwards the program re-encoded, and
// json.Marshal writes each '<' as a six-byte escape: the member refuses
// the forward with 413, and the gateway answers 413 with the error
// envelope, as for a body over its own bound.
func TestGatewayReencodedBodyTooLarge(t *testing.T) {
	body := `{"seed":1,"program":{"name":"` + strings.Repeat("<", 300<<10) +
		`","ops":[{"op":"load","kind":"viable-cell","count":1}]}}`
	if len(body) != 307285 {
		t.Fatalf("body is %d bytes", len(body))
	}
	for _, r := range roles() {
		base, _ := r.start(t)
		resp, got := do(t, http.MethodPost, base+"/v1/assays", body)
		want := http.StatusAccepted
		if r.member != "" {
			want = http.StatusRequestEntityTooLarge
		}
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d (%.200s)", r.name, resp.StatusCode, want, got)
			continue
		}
		var eb service.ErrorBody
		if want != http.StatusAccepted && (json.Unmarshal(got, &eb) != nil || !strings.Contains(eb.Error, "too large")) {
			t.Errorf("%s: body %.200q is not the error envelope naming the bound", r.name, got)
		}
	}
}

// checkJobBody checks one job record: 200, "id" first and "status"
// second (clients read them by position), and the member field exactly
// on the gateway, last.
func checkJobBody(t *testing.T, r role, what string, resp *http.Response, body []byte, id string) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d (%s)", what, id, resp.StatusCode, body)
	}
	if prefix := fmt.Sprintf(`{"id":%q,"status":`, id); !bytes.HasPrefix(body, []byte(prefix)) {
		t.Errorf("%s %s: body does not start with %s: %.80s", what, id, prefix, body)
	}
	member := fmt.Sprintf(`,"member":%q}`, r.member)
	if got := bytes.HasSuffix(bytes.TrimSpace(body), []byte(member)); got != (r.member != "") {
		t.Errorf("%s %s: member field present=%v, want %v: ...%s", what, id, got, r.member != "", body[max(0, len(body)-60):])
	}
	if r.member == "" && bytes.Contains(body, []byte(`"member"`)) {
		t.Errorf("%s %s: worker body carries a member field", what, id)
	}
}

// checkPaging pins the listing rules on five finished jobs: submission
// order, cursor pages, newest-first, status filter, no reports, and the
// member name on every gateway row.
func checkPaging(t *testing.T, r role, base string, ids []string) {
	t.Helper()
	getPage := func(query string) service.ListPage {
		t.Helper()
		resp, body := do(t, http.MethodGet, base+"/v1/assays"+query, "")
		var page service.ListPage
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &page) != nil {
			t.Fatalf("GET /v1/assays%s: status %d (%s)", query, resp.StatusCode, body)
		}
		return page
	}
	page := getPage("")
	if len(page.Jobs) != 5 || page.Next != "" {
		t.Fatalf("full listing: %d jobs, next %q", len(page.Jobs), page.Next)
	}
	for i, j := range page.Jobs {
		if j.ID != ids[i] || j.Report != nil || j.Member != r.member {
			t.Errorf("listing[%d] = %s (report %v, member %q), want %s (no report, member %q)",
				i, j.ID, j.Report != nil, j.Member, ids[i], r.member)
		}
	}
	page = getPage("?limit=3")
	if len(page.Jobs) != 3 || page.Next != ids[2] {
		t.Fatalf("page 1: %d jobs, next %q", len(page.Jobs), page.Next)
	}
	page = getPage("?limit=3&after=" + page.Next)
	if len(page.Jobs) != 2 || page.Next != "" || page.Jobs[0].ID != ids[3] || page.Jobs[1].ID != ids[4] {
		t.Fatalf("page 2: %+v, next %q", page.Jobs, page.Next)
	}
	page = getPage("?order=desc&limit=1")
	if len(page.Jobs) != 1 || page.Jobs[0].ID != ids[4] || page.Next != ids[4] {
		t.Fatalf("newest: %+v, next %q", page.Jobs, page.Next)
	}
	// An unknown cursor pages from the first ID past it.
	if page := getPage("?after=a-000002x&limit=1"); len(page.Jobs) != 1 || page.Jobs[0].ID != ids[2] {
		t.Errorf("unknown cursor: %+v", page.Jobs)
	}
	if page := getPage("?status=queued"); len(page.Jobs) != 0 {
		t.Errorf("queued filter returned %d jobs", len(page.Jobs))
	}
	if page := getPage("?status=done"); len(page.Jobs) != 5 {
		t.Errorf("done filter returned %d jobs", len(page.Jobs))
	}
}

// TestGatewayLongPollTimeout pins the ?timeout rules of the gateway's
// long-poll on a job its member holds queued: 0 answers the current
// snapshot at once, a finite value holds that long, anything past the
// 60 s cap clamps to it (1e300 must neither overflow into an instant
// reply nor hang), and negative or non-finite values are 400s. The
// worker runs the same table (service.TestHTTPLongPollTimeout).
func TestGatewayLongPollTimeout(t *testing.T) {
	stub := newStubMember(t, service.Stats{}, accept)
	release := stub.holdJobs()
	g, err := New(Config{
		Members:      []MemberSpec{{Name: "w0", Addr: stub.ts.URL, Profiles: die40()}},
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gs := httptest.NewServer(g.Handler())
	defer gs.Close()
	// Releasing the job ends every long-poll still held server-side, so
	// it must come before the server shuts down.
	defer release()
	res, err := g.Submit(service.SubmitRequest{Seed: 1, Program: testProgram(4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		timeout string
		status  int           // 0: still held when the client gives up
		hold    time.Duration // minimum time the reply takes
	}{
		{"0", http.StatusOK, 0},
		{"0.2", http.StatusOK, 200 * time.Millisecond},
		{"1e300", 0, 0},
		{"NaN", http.StatusBadRequest, 0},
		{"Inf", http.StatusBadRequest, 0},
		{"-1", http.StatusBadRequest, 0},
	} {
		// A prompt reply takes well under a second; a held one is cut
		// by the client.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			gs.URL+"/v1/assays/"+res.ID+"?wait=1&timeout="+tc.timeout, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		elapsed := time.Since(start)
		switch {
		case tc.status == 0:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("timeout=%s: got %v, want the request held past the client deadline", tc.timeout, err)
			}
		case err != nil:
			t.Errorf("timeout=%s: %v, want status %d", tc.timeout, err, tc.status)
		default:
			var j service.Job
			_ = json.NewDecoder(resp.Body).Decode(&j)
			resp.Body.Close()
			if resp.StatusCode != tc.status || elapsed < tc.hold {
				t.Errorf("timeout=%s: status %d after %v, want %d after at least %v",
					tc.timeout, resp.StatusCode, elapsed, tc.status, tc.hold)
			}
			if tc.status == http.StatusOK && j.Status != service.StatusQueued {
				t.Errorf("timeout=%s: job %s, want the held job still queued", tc.timeout, j.Status)
			}
		}
		cancel()
	}
}
