package federation

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"biochip/internal/obs"
	"biochip/internal/service"
)

// TestGatewayObs drives the federated telemetry surface end to end:
// one instrumented worker behind one instrumented gateway. The
// gateway's /v1/metrics must merge its own families with the worker's
// scrape re-exported under a member label (and lint clean), and the
// gateway's /v1/assays/{id}/trace must stitch the worker's span tree
// onto the forward span through the X-Assay-Trace reference.
func TestGatewayObs(t *testing.T) {
	profiles := die40()
	cfg := service.FleetSpec{Profiles: profiles}.ServiceConfig()
	cfg.Obs = obs.NewRegistry()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()

	g, err := New(Config{
		Members:      []MemberSpec{{Name: "w0", Addr: ts.URL, Profiles: profiles}},
		PollInterval: 50 * time.Millisecond,
		Obs:          obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	body, err := json.Marshal(service.SubmitRequest{Seed: 11, Program: testProgram(8)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(gw.URL+"/v1/assays", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var sr service.SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	j, terminal, err := g.WaitTimeout(sr.ID, 10*time.Second)
	if err != nil || !terminal || j.Status != service.StatusDone {
		t.Fatalf("routed job: %+v terminal=%v err=%v", j, terminal, err)
	}

	resp, err = http.Get(gw.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("parsing gateway exposition: %v", err)
	}
	var buf strings.Builder
	if err := obs.WriteExposition(&buf, fams); err != nil {
		t.Fatal(err)
	}
	if probs := obs.LintExposition(strings.NewReader(buf.String())); len(probs) > 0 {
		t.Errorf("gateway exposition lint: %v", probs)
	}
	text := buf.String()
	for _, want := range []string{
		`assayd_gateway_jobs_total{status="done"} 1`,           // gateway's own
		`assayd_member_up{member="w0"} 1`,                      // scrape health
		`assayd_jobs_total{member="w0",status="done"} 1`,       // re-exported worker family
		`assayd_forward_seconds_count{member="w0"} 1`,          // forward histogram
		`assayd_cache_events_total{member="w0",kind="miss"} 1`, // member label prepended
	} {
		if !strings.Contains(text, want) {
			t.Errorf("gateway exposition missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(gw.URL + "/v1/assays/" + sr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Job != sr.ID {
		t.Fatalf("trace doc job %q, want %s", doc.Job, sr.ID)
	}
	var fwdSpan string
	names := make(map[string]string) // name → span ID
	for _, sp := range doc.Spans {
		if sp.Name == "forward" {
			fwdSpan = sp.ID
		}
		names[sp.Name] = sp.ID
	}
	for _, want := range []string{"job", "place", "forward", "queue", "execute"} {
		if names[want] == "" {
			t.Errorf("stitched trace missing %q span; spans: %+v", want, doc.Spans)
		}
	}
	memberRoot := 0
	for _, sp := range doc.Spans {
		if strings.HasPrefix(sp.ID, sr.ID+"/m:") && sp.Name == "job" {
			memberRoot++
			if sp.Parent != fwdSpan {
				t.Errorf("member root span parent %q, want forward span %q", sp.Parent, fwdSpan)
			}
		}
	}
	if memberRoot != 1 {
		t.Errorf("%d member root spans in stitched trace, want 1", memberRoot)
	}
}
