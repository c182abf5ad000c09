package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"biochip/internal/obs"
	"biochip/internal/service"
	"biochip/internal/store"
)

// gatewayStatsMatchMetrics reads a gateway's /v1/stats and /v1/metrics
// and checks every gateway-block counter against its series. It returns
// the gateway block for the caller's own expectations.
func gatewayStatsMatchMetrics(t *testing.T, base string) GatewayStats {
	t.Helper()
	var st Stats
	if _, body := do(t, http.MethodGet, base+"/v1/stats", ""); json.Unmarshal(body, &st) != nil {
		t.Fatalf("stats body %s", body)
	}
	_, body := do(t, http.MethodGet, base+"/v1/metrics", "")
	fams, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			key := s.Name
			for _, l := range s.Labels {
				key += fmt.Sprintf(" %s=%s", l.Name, l.Value)
			}
			series[key] = s.Value
		}
	}
	check := func(key string, stat uint64) {
		t.Helper()
		if v, ok := series[key]; !ok || uint64(v) != stat {
			t.Errorf("/v1/metrics %s = %v (present %v), /v1/stats reads %d", key, v, ok, stat)
		}
	}
	gw := st.Gateway
	check("assayd_gateway_forwarded_total", gw.Forwarded)
	check("assayd_gateway_jobs_total status=done", gw.Done)
	check("assayd_gateway_jobs_total status=failed", gw.Failed)
	check("assayd_gateway_recovered_total", gw.Recovered)
	check("assayd_gateway_persist_errors_total", gw.PersistErrors)
	if c := gw.Cache; c != nil {
		check("assayd_gateway_cache_events_total kind=hit", c.Hits)
		check("assayd_gateway_cache_events_total kind=miss", c.Misses)
		check("assayd_gateway_cache_events_total kind=coalesced", c.Coalesced)
	}
	return gw
}

// TestGatewayStatsMatchMetrics pins that a gateway's /v1/stats and
// /v1/metrics read one counter store: forwards, a done and a failed
// job, a cache miss, hit and coalesced duplicate, then a restart over
// the durable log after one member left the spec — the job routed to
// it, which failed before the restart, is restored failed from its
// finish record and counts as a failed job on both endpoints. CI
// repeats it under the race detector.
func TestGatewayStatsMatchMetrics(t *testing.T) {
	held := newStubMember(t, service.Stats{}, accept)
	release := held.holdJobs()
	// forgetful acks a submission, then answers 404 for every job: a
	// member that lost it, which fails the routed job.
	forgetful := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/assays" {
			reply(w, http.StatusAccepted, service.SubmitResult{ID: "j-000001", Eligible: []string{"die48"}})
			return
		}
		http.NotFound(w, r)
	}))
	defer forgetful.Close()
	w0 := MemberSpec{Name: "w0", Addr: held.ts.URL, Profiles: die40()}
	w1 := MemberSpec{Name: "w1", Addr: forgetful.URL,
		Profiles: []service.FleetProfileSpec{{Name: "die48", Shards: 1, Cols: 48, Rows: 48}}}
	dir := t.TempDir()
	open := func(members ...MemberSpec) (*Gateway, *store.Disk, *httptest.Server) {
		st, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{Members: members, Store: st, PollInterval: time.Hour, Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return g, st, httptest.NewServer(g.Handler())
	}
	submitAs := func(g *Gateway, req service.SubmitRequest, cache string) string {
		t.Helper()
		res, err := g.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != cache {
			t.Fatalf("seed %d: cache %q, want %q", req.Seed, res.Cache, cache)
		}
		return res.ID
	}
	wait := func(g *Gateway, id string, want service.Status) {
		t.Helper()
		if j, terminal, err := g.WaitTimeout(id, 30*time.Second); err != nil || !terminal || j.Status != want {
			t.Fatalf("job %s: %s terminal=%v %v, want %s", id, j.Status, terminal, err, want)
		}
	}
	small := service.SubmitRequest{Seed: 1, Program: testProgram(6)}
	// Only w1 can run the pinned program; the small one ties and goes
	// to w0, first in members order.
	large := service.SubmitRequest{Seed: 2, Program: pinnedLargeProgram()}

	g, st, gs := open(w0, w1)
	root := submitAs(g, small, "")
	lost := submitAs(g, large, "")
	if id := submitAs(g, small, "coalesced"); id != root {
		t.Fatalf("coalesced onto %s, want %s", id, root)
	}
	release()
	wait(g, root, service.StatusDone)
	wait(g, lost, service.StatusFailed)
	submitAs(g, small, "hit")
	gw := gatewayStatsMatchMetrics(t, gs.URL)
	if c := gw.Cache; gw.Forwarded != 2 || gw.Done != 1 || gw.Failed != 1 || c.Misses != 2 || c.Hits != 1 || c.Coalesced != 1 {
		t.Errorf("before restart: forwarded %d done %d failed %d, misses %d hits %d coalesced %d; want 2 1 1, 2 1 1",
			gw.Forwarded, gw.Done, gw.Failed, c.Misses, c.Hits, c.Coalesced)
	}
	gs.Close()
	g.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// w1 left the spec: its routed job is restored failed from the log.
	g, st, gs = open(w0)
	defer func() { gs.Close(); g.Close(); st.Close() }()
	wait(g, root, service.StatusDone)
	wait(g, lost, service.StatusFailed)
	submitAs(g, small, "hit")
	gw = gatewayStatsMatchMetrics(t, gs.URL)
	if gw.Recovered != 2 || gw.Done != 1 || gw.Failed != 1 || gw.Forwarded != 0 || gw.Cache.Hits != 1 {
		t.Errorf("after restart: recovered %d done %d failed %d forwarded %d hits %d; want 2 1 1 0 1",
			gw.Recovered, gw.Done, gw.Failed, gw.Forwarded, gw.Cache.Hits)
	}
}

// refusingRoutes is a route log whose every append fails.
type refusingRoutes struct{ store.Store }

func (refusingRoutes) LogRoute(store.RouteRecord) error {
	return errors.New("injected route append failure")
}

// TestGatewayRouteAppendFails: a submission whose route record cannot
// be appended is refused with ErrPersist (HTTP 500) and binds nothing,
// and each refusal counts once on both endpoints.
func TestGatewayRouteAppendFails(t *testing.T) {
	member := newStubMember(t, service.Stats{}, accept)
	disk, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	g, err := New(Config{
		Members:      []MemberSpec{{Name: "w0", Addr: member.ts.URL, Profiles: die40()}},
		Store:        refusingRoutes{disk},
		PollInterval: time.Hour,
		Obs:          obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gs := httptest.NewServer(g.Handler())
	defer gs.Close()

	if _, err := g.Submit(service.SubmitRequest{Seed: 1, Program: testProgram(4)}); !errors.Is(err, service.ErrPersist) {
		t.Fatalf("submit over a failing route log: %v, want ErrPersist", err)
	}
	if resp, body := do(t, http.MethodPost, gs.URL+"/v1/assays", submitBody(t, 1)); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("HTTP submit over a failing route log: %s %s, want 500", resp.Status, body)
	}
	if page := g.List(service.ListFilter{}); len(page.Jobs) != 0 {
		t.Errorf("refused submissions bound jobs: %+v", page.Jobs)
	}
	if gw := gatewayStatsMatchMetrics(t, gs.URL); gw.PersistErrors != 2 || gw.Forwarded != 0 || gw.Jobs != 0 {
		t.Errorf("persist errors %d, forwarded %d, jobs %d; want 2 0 0", gw.PersistErrors, gw.Forwarded, gw.Jobs)
	}
}

// refusingFinishes is a gateway log whose every finish append fails.
type refusingFinishes struct{ store.Store }

func (refusingFinishes) LogFinish(store.FinishRecord) error {
	return errors.New("injected finish append failure")
}

// TestGatewayFinishAppendFails: a routed job whose finish record cannot
// be appended still ends done, and its mirror keeps its events and
// serves the stream; the failure counts once on both endpoints. A
// restart over the log, whose finish appends then succeed, resumes the
// job's relay, which the member sees as a second event stream and
// record fetch, and serves the same report and stream.
func TestGatewayFinishAppendFails(t *testing.T) {
	addr, routes := countedMember(t)
	members := []MemberSpec{{Name: "w0", Addr: addr, Profiles: die40()}}
	disk, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	g, err := New(Config{Members: members, Store: refusingFinishes{disk}, PollInterval: time.Hour, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g.Handler())
	res, err := g.Submit(service.SubmitRequest{Seed: 5, Program: testProgram(4)})
	if err != nil {
		t.Fatal(err)
	}
	j, terminal, err := g.WaitTimeout(res.ID, 30*time.Second)
	if err != nil || !terminal || j.Status != service.StatusDone {
		t.Fatalf("job %s: %s terminal=%v err=%v, want done", res.ID, j.Status, terminal, err)
	}
	events := sseBody(t, gs.URL, res.ID, 0)
	if !strings.Contains(events, "event: job.done\n") {
		t.Fatalf("stream has no job.done frame:\n%s", events)
	}
	// The finish append follows the terminal frame: wait for its count.
	for deadline := time.Now().Add(10 * time.Second); g.Stats().Gateway.PersistErrors == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the failed finish append was never counted")
		}
	}
	if gw := gatewayStatsMatchMetrics(t, gs.URL); gw.PersistErrors != 1 || gw.Done != 1 {
		t.Errorf("persist errors %d, done %d; want 1 1", gw.PersistErrors, gw.Done)
	}
	g.mu.Lock()
	mirror := g.jobs[res.ID].mirror
	g.mu.Unlock()
	if evs := mirror.Events(); uint64(len(evs)) != mirror.Last() || len(evs) == 0 {
		t.Errorf("mirror keeps %d of %d events, want all", len(evs), mirror.Last())
	}
	if got := sseBody(t, gs.URL, res.ID, 0); got != events {
		t.Errorf("stream from the mirror changed:\n%s\nwant\n%s", got, events)
	}
	gs.Close()
	g.Close()

	g, err = New(Config{Members: members, Store: disk, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gs = httptest.NewServer(g.Handler())
	defer gs.Close()
	after, terminal, err := g.WaitTimeout(res.ID, 30*time.Second)
	if err != nil || !terminal || after.Status != service.StatusDone || string(after.Report) != string(j.Report) {
		t.Fatalf("job %s after restart: %s terminal=%v err=%v, want done with its report", res.ID, after.Status, terminal, err)
	}
	if got := sseBody(t, gs.URL, res.ID, 0); got != events {
		t.Errorf("stream after restart differs:\n%s\nwant\n%s", got, events)
	}
	if got := routes(); got["events"] != 2 || got["get"] != 2 {
		t.Errorf("member requests %v, want 2 events and 2 get: the restart resumes the relay", got)
	}
}
