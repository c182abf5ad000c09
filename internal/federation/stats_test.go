package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"biochip/internal/service"
	"biochip/internal/store"
	"biochip/internal/stream"
)

func memberStats(name string, st service.Stats) MemberStats {
	return MemberStats{Member: name, Addr: "http://" + name, Reachable: true, Stats: &st}
}

func TestMergeStats(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members []MemberStats
		want    service.Stats
	}{
		{
			name: "empty fleet",
			want: service.Stats{},
		},
		{
			name: "counters sum and uptime takes the oldest, skewed or not",
			members: []MemberStats{
				memberStats("a", service.Stats{
					Shards: 2, QueueDepth: 64, Queued: 3, Running: 1, Done: 10, Failed: 1,
					Recovered: 4, PersistErrors: 1,
					CalibrationHits: 9, CalibrationMisses: 1, UptimeSeconds: 120,
				}),
				memberStats("b", service.Stats{
					Shards: 1, QueueDepth: 32, Queued: 1, Running: 2, Done: 90000, Failed: 0,
					CalibrationHits: 1, CalibrationMisses: 2, UptimeSeconds: 3.5,
				}),
			},
			want: service.Stats{
				Shards: 3, QueueDepth: 96, Queued: 4, Running: 3, Done: 90010, Failed: 1,
				Recovered: 4, PersistErrors: 1,
				CalibrationHits: 10, CalibrationMisses: 3, UptimeSeconds: 120,
			},
		},
		{
			name: "unreachable members are skipped, not zero-summed",
			members: []MemberStats{
				memberStats("a", service.Stats{Shards: 2, Done: 5, UptimeSeconds: 10}),
				{Member: "b", Addr: "http://b", Error: "connection refused"},
				memberStats("c", service.Stats{Shards: 1, Done: 7, UptimeSeconds: 20}),
			},
			want: service.Stats{Shards: 3, Done: 12, UptimeSeconds: 20},
		},
		{
			name: "profiles merge by name in first-seen order",
			members: []MemberStats{
				memberStats("a", service.Stats{Profiles: []service.ProfileStats{
					{Profile: "small", Shards: 2, Cols: 32, Rows: 32, Executed: 10, Stolen: 1, Queued: 2, JobsPerSecond: 1.5, CalibrationMisses: 1},
				}}),
				memberStats("b", service.Stats{Profiles: []service.ProfileStats{
					{Profile: "large", Shards: 1, Cols: 48, Rows: 48, Executed: 3, JobsPerSecond: 0.25},
					{Profile: "small", Shards: 1, Cols: 32, Rows: 32, Executed: 4, Stolen: 2, Queued: 1, JobsPerSecond: 0.5, CalibrationMisses: 1},
				}}),
			},
			want: service.Stats{Profiles: []service.ProfileStats{
				{Profile: "small", Shards: 3, Cols: 32, Rows: 32, Executed: 14, Stolen: 3, Queued: 3, JobsPerSecond: 2, CalibrationMisses: 2},
				{Profile: "large", Shards: 1, Cols: 48, Rows: 48, Executed: 3, JobsPerSecond: 0.25},
			}},
		},
		{
			name: "classes merge by profile set, planners by name sorted",
			members: []MemberStats{
				memberStats("a", service.Stats{
					Classes: []service.ClassStats{
						{Profiles: []string{"small", "large"}, Queued: 2},
						{Profiles: []string{"large"}, Queued: 1},
					},
					Planners: []service.PlannerStats{
						{Planner: "greedy", Plans: 4, Steps: 40, Moves: 10, PlanSeconds: 0.5},
					},
				}),
				memberStats("b", service.Stats{
					Classes: []service.ClassStats{
						{Profiles: []string{"small", "large"}, Queued: 5},
					},
					Planners: []service.PlannerStats{
						{Planner: "astar", Plans: 1, Steps: 9, Moves: 3, PlanSeconds: 0.1},
						{Planner: "greedy", Plans: 2, Steps: 20, Moves: 5, PlanSeconds: 0.25},
					},
				}),
			},
			want: service.Stats{
				Classes: []service.ClassStats{
					{Profiles: []string{"small", "large"}, Queued: 7},
					{Profiles: []string{"large"}, Queued: 1},
				},
				Planners: []service.PlannerStats{
					{Planner: "astar", Plans: 1, Steps: 9, Moves: 3, PlanSeconds: 0.1},
					{Planner: "greedy", Plans: 6, Steps: 60, Moves: 15, PlanSeconds: 0.75},
				},
			},
		},
		{
			name: "store and cache blocks sum across the members that have them",
			members: []MemberStats{
				memberStats("a", service.Stats{
					Store: &store.Stats{Kind: "disk", Segments: 2, Bytes: 1000, Records: 50, Truncated: 1},
					Cache: &service.CacheStats{Entries: 3, Hits: 5, Misses: 10, Coalesced: 2},
				}),
				memberStats("b", service.Stats{}),
				memberStats("c", service.Stats{
					Store: &store.Stats{Kind: "disk", Segments: 1, Bytes: 500, Records: 20},
					Cache: &service.CacheStats{Entries: 1, Hits: 2, Misses: 4},
				}),
			},
			want: service.Stats{
				Store: &store.Stats{Kind: "merged", Segments: 3, Bytes: 1500, Records: 70, Truncated: 1},
				Cache: &service.CacheStats{Entries: 4, Hits: 7, Misses: 14, Coalesced: 2},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := MergeStats(tc.members)
			// PerShard must be empty but non-nil, so the fleet block
			// keeps the worker wire shape ("per_shard": []) — shard IDs
			// are member-local and would collide meaninglessly merged.
			tc.want.PerShard = []service.ShardStats{}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("MergeStats mismatch\n got: %+v\nwant: %+v", got, tc.want)
			}
		})
	}
}

func TestParseMembersSpec(t *testing.T) {
	valid := `{
  "cache": {"disable": true},
  "members": [
    {"name": "w0", "addr": "http://127.0.0.1:8081",
     "profiles": [{"name": "die40", "shards": 2, "cols": 40, "rows": 40}]},
    {"name": "w1", "addr": "http://127.0.0.1:8082",
     "profiles": [{"name": "die48", "shards": 1, "cols": 48, "rows": 48}]}
  ]
}`
	ms, err := ParseMembersSpec([]byte(valid))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Members) != 2 || !ms.Cache.Disable {
		t.Fatalf("parsed = %+v", ms)
	}
	for _, tc := range []struct {
		name, doc, wantErr string
	}{
		{"no members", `{"members": []}`, "no members"},
		{"unknown field", `{"member": []}`, "unknown field"},
		{"empty name", `{"members": [{"name": "", "addr": "http://x", "profiles": [{"name": "p", "shards": 1, "cols": 32, "rows": 32}]}]}`, "empty name"},
		{"duplicate name", `{"members": [
			{"name": "w", "addr": "http://x", "profiles": [{"name": "p", "shards": 1, "cols": 32, "rows": 32}]},
			{"name": "w", "addr": "http://y", "profiles": [{"name": "p", "shards": 1, "cols": 32, "rows": 32}]}]}`, "duplicate member"},
		{"empty addr", `{"members": [{"name": "w", "addr": "", "profiles": [{"name": "p", "shards": 1, "cols": 32, "rows": 32}]}]}`, "empty addr"},
		{"cache entries", `{"cache": {"entries": 16}, "members": [{"name": "w", "addr": "http://x", "profiles": [{"name": "p", "shards": 1, "cols": 32, "rows": 32}]}]}`, "unknown field"},
		{"bad profiles", `{"members": [{"name": "w", "addr": "http://x", "profiles": []}]}`, "w"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseMembersSpec([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzParseSpecs feeds the same bytes to both spec parsers,
// service.ParseFleetSpec and ParseMembersSpec. Neither may panic, and a
// spec either accepts survives json.Marshal and a second parse as an
// equal value.
func FuzzParseSpecs(f *testing.F) {
	for _, doc := range []string{
		`{"profiles": [{"name": "p", "shards": 1, "cols": 32, "rows": 32}]}`,
		`{"queue": 8, "cache": {"disable": true}, "profiles": [{"name": "p", "shards": 2, "cols": 40, "rows": 9, "parallelism": 2, "tech": "0.35um", "no_cache": true}]}`,
		`{"members": [{"name": "w", "addr": "http://x", "profiles": [{"name": "p", "shards": 1, "cols": 32, "rows": 32}]}]}`,
		`{"cache": {"entries": 1}, "members": []}`,
		`{"profiles": [{"name": "p", "shards": 0, "cols": 2}]} x`,
		`null`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reparses(t, data, service.ParseFleetSpec)
		reparses(t, data, ParseMembersSpec)
	})
}

// reparses checks that a spec parse accepts survives json.Marshal and
// a second parse as an equal value.
func reparses[S any](t *testing.T, data []byte, parse func([]byte) (S, error)) {
	spec, err := parse(data)
	if err != nil {
		return
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	again, err := parse(raw)
	if err != nil || !reflect.DeepEqual(again, spec) {
		t.Errorf("%s parsed as %+v, then as %+v (%v)", data, spec, again, err)
	}
}

// stubMember is a scripted worker endpoint for placement tests: it
// serves a crafted /v1/stats body and answers submissions by script,
// recording what it was asked to run. Its jobs stay queued: a job's
// event stream is job.placed and then nothing, until holdJobs releases
// it (or loseJobs loses it).
type stubMember struct {
	mu       sync.Mutex
	stats    service.Stats
	submits  int
	response func(n int) (int, interface{}) // status, body for the n-th submission
	hold     chan struct{}                  // see holdJobs
	lost     bool                           // see loseJobs
	ts       *httptest.Server
}

func newStubMember(t *testing.T, stats service.Stats, response func(n int) (int, interface{})) *stubMember {
	s := &stubMember{stats: stats, response: response}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		st := s.stats
		s.mu.Unlock()
		reply(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/assays", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		n := s.submits
		s.submits++
		s.mu.Unlock()
		code, body := s.response(n)
		reply(w, code, body)
	})
	mux.HandleFunc("GET /v1/assays/{id}", func(w http.ResponseWriter, r *http.Request) {
		if s.gone() {
			reply(w, http.StatusNotFound, service.ErrorBody{Error: "unknown job"})
			return
		}
		status := service.StatusQueued
		select {
		case <-s.held():
			status = service.StatusDone
		default:
		}
		reply(w, http.StatusOK, service.Job{ID: r.PathValue("id"), Status: status})
	})
	mux.HandleFunc("GET /v1/assays/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		frame := func(seq int, typ string) {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: {\"seq\":%d,\"type\":%q,\"t\":0,\"job\":{\"id\":%q}}\n\n",
				seq, typ, seq, typ, r.PathValue("id"))
			w.(http.Flusher).Flush()
		}
		if s.gone() {
			reply(w, http.StatusNotFound, service.ErrorBody{Error: "unknown job"})
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		if r.Header.Get("Last-Event-ID") == "" {
			frame(1, stream.JobPlaced)
		}
		select {
		case <-s.held(): // a nil channel (no holdJobs) holds for good
			if !s.gone() {
				frame(2, stream.JobDone)
			}
		case <-r.Context().Done():
		}
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

// holdJobs keeps the stub's jobs queued, holding their event streams
// after job.placed, until release runs; from then on every job is done.
func (s *stubMember) holdJobs() (release func()) {
	hold := make(chan struct{})
	s.mu.Lock()
	s.hold = hold
	s.mu.Unlock()
	return func() { close(hold) }
}

// loseJobs holds the stub's jobs as holdJobs does, but release loses
// them, as a worker without -data does when it restarts: open event
// streams end without a terminal frame, and every later request about
// a job answers 404.
func (s *stubMember) loseJobs() (release func()) {
	hold := s.holdJobs()
	return func() {
		s.mu.Lock()
		s.lost = true
		s.mu.Unlock()
		hold()
	}
}

// gone reports whether loseJobs released.
func (s *stubMember) gone() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lost
}

// held is the channel release closes (nil before holdJobs).
func (s *stubMember) held() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hold
}

// reply writes one JSON response, as a worker does.
func reply(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *stubMember) submitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submits
}

func accept(n int) (int, interface{}) {
	return http.StatusAccepted, service.SubmitResult{ID: fmt.Sprintf("j-%06d", n+1), Eligible: []string{"die40"}}
}

// TestPlacementPrefersLowBacklog pins the placement rule: among
// eligible members, the one whose compatible classes have the smallest
// backlog wins; ties break in members order.
func TestPlacementPrefersLowBacklog(t *testing.T) {
	busy := newStubMember(t, service.Stats{
		Queued:  9,
		Classes: []service.ClassStats{{Profiles: []string{"die40"}, Queued: 9}},
	}, accept)
	idle := newStubMember(t, service.Stats{Queued: 0}, accept)
	g, err := New(Config{
		Members: []MemberSpec{
			{Name: "busy", Addr: busy.ts.URL, Profiles: die40()},
			{Name: "idle", Addr: idle.ts.URL, Profiles: die40()},
		},
		PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Wait for the poller to populate both views.
	deadline := time.Now().Add(5 * time.Second) //detlint:allow walltime — test-only poll deadline
	for busyView := false; !busyView; {
		g.mu.Lock()
		v := g.views[0] // members order: "busy" first
		busyView = v.reachable && v.queued == 9
		g.mu.Unlock()
		if time.Now().After(deadline) { //detlint:allow walltime — test-only poll deadline
			t.Fatal("poller never populated the busy view")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if _, err := g.Submit(service.SubmitRequest{Seed: 1000 + uint64(i), Program: testProgram(6)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := idle.submitted(); got != 3 {
		t.Errorf("idle member got %d submissions, want 3", got)
	}
	if got := busy.submitted(); got != 0 {
		t.Errorf("busy member got %d submissions, want 0", got)
	}
}

// TestPlacement429FallsOver pins the 429 path: a full member's refusal
// carries its backlog, the gateway refreshes its view from it and the
// job lands on the next candidate; when every member is full the
// caller sees one merged QueueFullError.
func TestPlacement429FallsOver(t *testing.T) {
	fullBody := service.ErrorBody{
		Error: "queue full", Queued: intp(8), QueueDepth: 8,
		Backlog: []service.ClassStats{{Profiles: []string{"die40"}, Queued: 8}},
	}
	full := newStubMember(t, service.Stats{}, func(n int) (int, interface{}) {
		return http.StatusTooManyRequests, fullBody
	})
	open := newStubMember(t, service.Stats{Queued: 5}, accept)
	g, err := New(Config{
		Members: []MemberSpec{
			{Name: "full", Addr: full.ts.URL, Profiles: die40()},
			{Name: "open", Addr: open.ts.URL, Profiles: die40()},
		},
		PollInterval: time.Hour, // placement runs on 429 feedback alone
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	res, err := g.Submit(service.SubmitRequest{Seed: 2000, Program: testProgram(6)})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID == "" || open.submitted() != 1 {
		t.Fatalf("res=%+v open=%d", res, open.submitted())
	}
	// The 429 refreshed the view: the next submission skips the full
	// member entirely.
	if _, err := g.Submit(service.SubmitRequest{Seed: 2001, Program: testProgram(6)}); err != nil {
		t.Fatal(err)
	}
	if got := full.submitted(); got != 1 {
		t.Errorf("full member tried %d times, want 1 (backlog view should price it out)", got)
	}

	// All members full → merged QueueFullError.
	allFull, err := New(Config{
		Members:      []MemberSpec{{Name: "full", Addr: full.ts.URL, Profiles: die40()}},
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer allFull.Close()
	_, err = allFull.Submit(service.SubmitRequest{Seed: 2002, Program: testProgram(6)})
	var qf *service.QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("err = %v, want QueueFullError", err)
	}
	if qf.Queued != 8 || qf.Depth != 8 || len(qf.Classes) != 1 {
		t.Errorf("merged QueueFullError = %+v", qf)
	}
}

// TestAllMembersUnreachable pins the outage path: submissions fail
// with ErrNoMembers (503 on the wire) rather than queueing nowhere.
func TestAllMembersUnreachable(t *testing.T) {
	dead := newStubMember(t, service.Stats{}, accept)
	addr := dead.ts.URL
	dead.ts.Close()
	g, err := New(Config{
		Members:      []MemberSpec{{Name: "dead", Addr: addr, Profiles: die40()}},
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	_, err = g.Submit(service.SubmitRequest{Seed: 3000, Program: testProgram(6)})
	if !errors.Is(err, ErrNoMembers) {
		t.Fatalf("err = %v, want ErrNoMembers", err)
	}
}

// TestAggregateHealth drives the gateway health rules across member
// states: all ok → ok; some down → degraded; all down → unavailable;
// gateway draining → draining. The wire mapping (200 vs 503) rides on
// the same statuses via HealthBody.
func TestAggregateHealth(t *testing.T) {
	_, okTS := startWorker(t, die40())
	downTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	downTS.Close()

	newG := func(members ...MemberSpec) *Gateway {
		g, err := New(Config{Members: members, PollInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g
	}
	okMember := MemberSpec{Name: "up", Addr: okTS.URL, Profiles: die40()}
	downMember := MemberSpec{Name: "down", Addr: downTS.URL, Profiles: die40()}

	if h := newG(okMember).AggregateHealth(); h.Status != "ok" || !h.Members[0].Reachable {
		t.Errorf("all-ok health = %+v", h)
	}
	if h := newG(okMember, downMember).AggregateHealth(); h.Status != "degraded" {
		t.Errorf("degraded health = %+v", h)
	}
	h := newG(downMember).AggregateHealth()
	if h.Status != "unavailable" || h.Members[0].Error == "" {
		t.Errorf("unavailable health = %+v", h)
	}

	g := newG(okMember)
	go g.Drain()
	deadline := time.Now().Add(5 * time.Second) //detlint:allow walltime — test-only poll deadline
	for !g.Draining() {
		if time.Now().After(deadline) { //detlint:allow walltime — test-only poll deadline
			t.Fatal("gateway never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if h := g.AggregateHealth(); h.Status != "draining" {
		t.Errorf("draining health = %+v", h)
	}
	select {
	case <-g.Drained():
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed")
	}
}

// TestGatewayDrainWaitsForRoutedJobs pins Drain over routed jobs: a
// job still running on its member holds it, and each way a routed job
// ends releases it — the relay's terminal frame, a member that lost
// the job (its 404 fails the job), and a recovered job whose member
// left the members spec, which recovery fails before it can hold
// anything. Drained closes only after the last of them.
func TestGatewayDrainWaitsForRoutedJobs(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.LogRoute(store.RouteRecord{ID: "a-000001", Member: "gone", RemoteID: "j-000001", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	held := newStubMember(t, service.Stats{}, accept)
	finish := held.holdJobs()
	lost := newStubMember(t, service.Stats{}, accept)
	lose := lost.loseJobs()
	g, err := New(Config{Members: []MemberSpec{
		{Name: "held", Addr: held.ts.URL, Profiles: die40()},
		{Name: "lost", Addr: lost.ts.URL, Profiles: die40()},
	}, Store: st, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if j, _ := g.Get("a-000001"); j.Status != service.StatusFailed {
		t.Fatalf("recovered job of a removed member: %s, want failed", j.Status)
	}
	// The members tie, so the first job goes to "held", first in
	// members order, and the second to "lost", which then has no
	// forward pending.
	var ids []string
	for i, want := range []string{"held", "lost"} {
		res, err := g.Submit(service.SubmitRequest{Seed: 10 + uint64(i), Program: testProgram(4)})
		if err != nil {
			t.Fatal(err)
		}
		if j, _ := g.Get(res.ID); j.Member != want {
			t.Fatalf("job %s routed to %q, want %q", res.ID, j.Member, want)
		}
		ids = append(ids, res.ID)
	}
	go g.Drain()
	stillOpen := func(when string) {
		t.Helper()
		select {
		case <-g.Drained():
			t.Fatalf("Drained closed %s", when)
		case <-time.After(100 * time.Millisecond):
		}
	}
	stillOpen("while both routed jobs ran")
	if !g.Draining() {
		t.Fatal("gateway not draining")
	}
	finish()
	if j, terminal, err := g.WaitTimeout(ids[0], 10*time.Second); err != nil || !terminal || j.Status != service.StatusDone {
		t.Fatalf("job %s: %s terminal=%v err=%v, want done", ids[0], j.Status, terminal, err)
	}
	stillOpen("while a routed job ran")
	lose()
	select {
	case <-g.Drained():
	case <-time.After(10 * time.Second):
		t.Fatal("Drained never closed after the last routed job ended")
	}
	if j, _ := g.Get(ids[1]); j.Status != service.StatusFailed || !strings.Contains(j.Error, "lost") {
		t.Errorf("job %s: %s %q, want failed as lost by its member", ids[1], j.Status, j.Error)
	}
}

// TestGatewayStatsEndToEnd sanity-checks the composed /v1/stats body
// over a real two-worker fleet after traffic: the gateway block counts
// forwards, the fleet block merges member counters, and both member
// snapshots are present and reachable.
func TestGatewayStatsEndToEnd(t *testing.T) {
	g := startGateway(t, 2, die40())
	var ids []string
	for i := 0; i < 4; i++ {
		res, err := g.Submit(service.SubmitRequest{Seed: 4000 + uint64(i), Program: testProgram(6)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
	}
	for _, id := range ids {
		if _, terminal, err := g.WaitTimeout(id, 30*time.Second); err != nil || !terminal {
			t.Fatalf("job %s: terminal=%v err=%v", id, terminal, err)
		}
	}
	st := g.Stats()
	if st.Gateway.Members != 2 || st.Gateway.Forwarded != 4 || st.Gateway.Done != 4 {
		t.Errorf("gateway block = %+v", st.Gateway)
	}
	if st.Fleet.Done != 4 || st.Fleet.Shards != 4 {
		t.Errorf("fleet block: done=%d shards=%d, want 4 and 4", st.Fleet.Done, st.Fleet.Shards)
	}
	if len(st.Members) != 2 || !st.Members[0].Reachable || !st.Members[1].Reachable {
		t.Errorf("members block = %+v", st.Members)
	}
	// The body round-trips as JSON (the golden example in
	// docs/examples/stats-federated.json mirrors this shape).
	if _, err := json.Marshal(st); err != nil {
		t.Fatal(err)
	}
}

func intp(n int) *int { return &n }
