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

// TestObsSpansPerPath pins what each worker path records. On a durable
// worker serving a registry, every executed job's trace holds job,
// submit, place, queue, execute, finish and persist, with persist under
// finish and the rest under job; a cache hit's trace is job and
// cache.hit; and the queue-wait, execute and persist histograms each
// count one observation per executed job. Without a registry no job
// has a trace.
func TestObsSpansPerPath(t *testing.T) {
	const n = 3
	run := func(reg *obs.Registry) (*Service, []string) {
		d := openTestStore(t, t.TempDir())
		t.Cleanup(func() { d.Close() })
		svc, err := New(Config{Shards: 2, Chip: testChip(), Store: d, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		var ids []string
		for i := 0; i < n; i++ {
			id, err := submit(svc, testProgram(6), 100+uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
				t.Fatalf("job %s: %v %v", id, j.Status, err)
			}
			ids = append(ids, id)
		}
		res, err := svc.Submit(SubmitRequest{Seed: 100, Program: testProgram(6)})
		if err != nil || res.Cache != "hit" {
			t.Fatalf("resubmission: %+v %v, want a cache hit", res, err)
		}
		return svc, append(ids, res.ID)
	}

	reg := obs.NewRegistry()
	svc, ids := run(reg)
	for _, id := range ids[:n] {
		doc, ok := svc.Trace(id)
		if !ok {
			t.Fatalf("job %s: no trace", id)
		}
		spans := make(map[string]obs.Span)
		for _, sp := range doc.Spans {
			spans[sp.Name] = sp
		}
		if len(doc.Spans) != 7 || len(spans) != 7 {
			t.Errorf("job %s: %d spans, want 7 distinct: %+v", id, len(doc.Spans), doc.Spans)
		}
		root := spans["job"]
		for _, name := range []string{"submit", "place", "queue", "execute", "finish"} {
			if sp, ok := spans[name]; !ok || sp.Parent != root.ID || root.ID == "" {
				t.Errorf("job %s: span %q missing or not under job: %+v", id, name, doc.Spans)
			}
		}
		if sp, ok := spans["persist"]; !ok || sp.Parent != spans["finish"].ID {
			t.Errorf("job %s: persist span missing or not under finish: %+v", id, doc.Spans)
		}
	}
	hit, ok := svc.Trace(ids[n])
	if !ok || len(hit.Spans) != 2 || hit.Spans[0].Name != "job" ||
		hit.Spans[1].Name != "cache.hit" || hit.Spans[1].Parent != hit.Spans[0].ID {
		t.Errorf("cache hit %s: trace %+v (%v), want job and cache.hit under it", ids[n], hit.Spans, ok)
	}
	for _, name := range []string{"assayd_queue_wait_seconds", "assayd_execute_seconds", "assayd_persist_seconds"} {
		var count float64
		for _, f := range reg.Gather() {
			for _, s := range f.Samples {
				if s.Name == name+"_count" {
					count += s.Value
				}
			}
		}
		if count != n {
			t.Errorf("%s counts %v observations, want %d", name, count, n)
		}
	}

	off, ids := run(nil)
	for _, id := range ids {
		if doc, ok := off.Trace(id); ok {
			t.Errorf("job %s without a registry: trace %+v", id, doc)
		}
	}
}
