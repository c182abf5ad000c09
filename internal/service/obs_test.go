package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"biochip/internal/obs"
)

// TestObsBitIdentical is the observability acceptance test (run in CI
// under -race -count=2): enabling metrics and tracing must not change a
// single bit of any report or canonical event stream. The same batch —
// fresh misses, a cache hit, and a duplicate across profiles — runs on
// an instrumented and an uninstrumented service and every output is
// compared byte for byte.
func TestObsBitIdentical(t *testing.T) {
	type sub struct {
		cells int
		seed  uint64
	}
	batch := []sub{{8, 1}, {12, 2}, {8, 1}, {16, 3}, {12, 2}}

	run := func(reg *obs.Registry) (reports []string, streams []string) {
		svc, err := New(Config{Shards: 2, Chip: testChip(), Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		var ids []string
		for _, b := range batch {
			res, err := svc.Submit(SubmitRequest{Seed: b.seed, Program: testProgram(b.cells)})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, res.ID)
		}
		for _, id := range ids {
			j, err := svc.Wait(id)
			if err != nil || j.Status != StatusDone {
				t.Fatalf("job %s: %v %v", id, j.Status, err)
			}
			raw, err := json.Marshal(j.Report)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, string(raw))
			streams = append(streams, canonicalJSON(t, collectJobEvents(t, svc, id, 0)))
		}
		return reports, streams
	}

	offRep, offEvs := run(nil)
	onRep, onEvs := run(obs.NewRegistry())
	for i := range batch {
		if offRep[i] != onRep[i] {
			t.Errorf("job %d: report differs obs-on vs obs-off:\n off %s\n on  %s", i, offRep[i], onRep[i])
		}
		if offEvs[i] != onEvs[i] {
			t.Errorf("job %d: event stream differs obs-on vs obs-off:\n off %s\n on  %s", i, offEvs[i], onEvs[i])
		}
	}
}

// TestObsEndpoints covers the worker telemetry surface over HTTP: the
// exposition at /v1/metrics parses and lints clean and carries the
// counters the batch must have moved; /v1/assays/{id}/trace returns the
// span tree with the federation parent echoed from X-Assay-Trace; both
// endpoints 404 cleanly when observability is disabled.
func TestObsEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	svc, err := New(Config{Shards: 2, Chip: testChip(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body, err := json.Marshal(SubmitRequest{Seed: 7, Program: testProgram(10)})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", srv.URL+"/v1/assays", strings.NewReader(string(body)))
	req.Header.Set("X-Assay-Trace", "gw-000004:2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := svc.Wait(sr.ID); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	var buf strings.Builder
	if err := obs.WriteExposition(&buf, fams); err != nil {
		t.Fatal(err)
	}
	if probs := obs.LintExposition(strings.NewReader(buf.String())); len(probs) > 0 {
		t.Errorf("exposition lint: %v", probs)
	}
	text := buf.String()
	for _, want := range []string{
		`assayd_jobs_total{status="done"} 1`,
		`assayd_cache_events_total{kind="miss"} 1`,
		"assayd_execute_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(srv.URL + "/v1/assays/" + sr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Job != sr.ID || doc.Parent != "gw-000004:2" {
		t.Errorf("trace doc job %q parent %q, want %s / gw-000004:2", doc.Job, doc.Parent, sr.ID)
	}
	names := make(map[string]bool)
	for _, sp := range doc.Spans {
		names[sp.Name] = true
		if sp.End < sp.Start {
			t.Errorf("span %s (%s) ends before it starts", sp.ID, sp.Name)
		}
	}
	for _, want := range []string{"job", "submit", "place", "queue", "execute", "finish"} {
		if !names[want] {
			t.Errorf("trace missing %q span; spans: %+v", want, doc.Spans)
		}
	}

	// Disabled: both endpoints must 404, not serve empty telemetry.
	off, err := New(Config{Shards: 1, Chip: testChip()})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	offSrv := httptest.NewServer(off.Handler())
	defer offSrv.Close()
	id, err := submit(off, testProgram(6), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.Wait(id); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/metrics", "/v1/assays/" + id + "/trace"} {
		resp, err := http.Get(offSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with obs disabled: %d, want 404", path, resp.StatusCode)
		}
	}
}
