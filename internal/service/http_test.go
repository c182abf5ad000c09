package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"biochip/internal/assay"
	"biochip/internal/stream"
)

// TestHTTPShardedBitIdenticalToSerial is the end-to-end acceptance test:
// the assayd HTTP surface serves 8 concurrent assay programs across 4
// shards, and every report — scan tables included — is bit-identical to
// a serial replay of the same seeded program.
func TestHTTPShardedBitIdenticalToSerial(t *testing.T) {
	cfg := testChip()
	svc, err := New(Config{Shards: 4, Chip: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const jobs = 8
	pr := testProgram(8)
	body, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}

	// Submit all 8 concurrently through the wire format.
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := fmt.Sprintf(`{"seed": %d, "program": %s}`, 500+i, body)
			resp, err := http.Post(ts.URL+"/v1/assays", "application/json",
				bytes.NewReader([]byte(req)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			var sub SubmitResult
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				errs[i] = err
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Poll each job to completion, then compare against serial replay.
	for i, id := range ids {
		job := pollJob(t, ts.URL, id)
		if job.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, job.Status, job.Error)
		}
		serialCfg := cfg
		serialCfg.Seed = 500 + uint64(i)
		want, err := assay.Execute(pr, serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		// The report crossed the wire as JSON; compare in wire form so
		// both sides go through the same encoding.
		got, err := json.Marshal(job.Report)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("job %s (seed %d, shard %d): HTTP report differs from serial replay",
				id, job.Seed, job.Shard)
		}
	}

	// The stats endpoint reflects the completed batch.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || st.Done != jobs {
		t.Errorf("stats: shards %d done %d, want 4 and %d", st.Shards, st.Done, jobs)
	}
	var executed uint64
	for _, sh := range st.PerShard {
		executed += sh.Executed
	}
	if executed != jobs {
		t.Errorf("per-shard executed sums to %d, want %d", executed, jobs)
	}
}

// pollJob GETs the job until it reaches a terminal state.
func pollJob(t *testing.T, base, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/assays/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.Status == StatusDone || job.Status == StatusFailed {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPQueueFullMapsTo429 drives the wire-level backpressure path.
func TestHTTPQueueFullMapsTo429(t *testing.T) {
	release := make(chan struct{})
	svc := newFakeService(t, 1, 1, func(sh *shard, j *Job) { <-release })
	defer svc.Close()
	defer close(release)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	pr, err := json.Marshal(testProgram(4))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(fmt.Sprintf(`{"seed":1,"program":%s}`, pr))
	saw429 := false
	for i := 0; i < 1000 && !saw429; i++ {
		resp, err := http.Post(ts.URL+"/v1/assays", "application/json",
			bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
			// The 429 must carry the backoff hint clients (assayctl)
			// honor instead of hammering the queue.
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Errorf("429 Retry-After = %q, want \"1\"", ra)
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if !saw429 {
		t.Fatal("bounded queue never surfaced 429 over HTTP")
	}
}

// TestHTTPLongPoll drives GET /v1/assays/{id}?wait=1: the server holds
// the request until the job finishes or the client's timeout elapses,
// so clients stop busy-polling.
func TestHTTPLongPoll(t *testing.T) {
	release := make(chan struct{})
	svc := newFakeService(t, 1, 0, func(sh *shard, j *Job) { <-release })
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	id, err := submit(svc, testProgram(4), 1)
	if err != nil {
		t.Fatal(err)
	}

	// While the job is held, a short-timeout long-poll must block for
	// the window and come back with a non-terminal snapshot.
	start := time.Now()
	job := getJob(t, ts.URL+"/v1/assays/"+id+"?wait=1&timeout=0.15")
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("long-poll returned after %v, want ≈150ms hold", elapsed)
	}
	if job.Status == StatusDone || job.Status == StatusFailed {
		t.Fatalf("job finished while the runner was parked: %s", job.Status)
	}

	// Long-poll is opt-in: wait=0 is an instant status check, not a
	// hold until the default window.
	start = time.Now()
	if job := getJob(t, ts.URL+"/v1/assays/"+id+"?wait=0"); job.Status == StatusDone {
		t.Fatalf("job %s finished with the runner parked", id)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("wait=0 held the request %v", elapsed)
	}

	// Once the job completes, a pending long-poll returns promptly with
	// the terminal record — no client-side polling loop.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	start = time.Now()
	job = getJob(t, ts.URL+"/v1/assays/"+id+"?wait=1&timeout=30")
	if job.Status != StatusDone {
		t.Fatalf("long-poll after release: %s (%s)", job.Status, job.Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("long-poll held %v after completion", elapsed)
	}

	// Error surface: unknown jobs 404, malformed timeouts 400.
	for _, tc := range []struct {
		url  string
		want int
	}{
		{ts.URL + "/v1/assays/a-999999?wait=1", http.StatusNotFound},
		{ts.URL + "/v1/assays/" + id + "?wait=1&timeout=-3", http.StatusBadRequest},
		{ts.URL + "/v1/assays/" + id + "?wait=1&timeout=soon", http.StatusBadRequest},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

// TestHTTPLongPollTimeout pins the ?timeout rules of the worker's
// long-poll on a parked job: 0 answers the current snapshot at once, a
// finite value holds that long, anything past the 60 s cap clamps to it
// (1e300 must not overflow into an instant reply), and negative or
// non-finite values are 400s. The gateway runs the same table
// (federation.TestGatewayLongPollTimeout).
func TestHTTPLongPollTimeout(t *testing.T) {
	release := make(chan struct{})
	svc := newFakeService(t, 1, 0, func(sh *shard, j *Job) { <-release })
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	// Releasing the job ends every long-poll still held server-side, so
	// it must come before the server shuts down.
	defer close(release)
	id, err := submit(svc, testProgram(4), 1)
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
			ts.URL+"/v1/assays/"+id+"?wait=1&timeout="+tc.timeout, nil)
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
			var j Job
			_ = json.NewDecoder(resp.Body).Decode(&j)
			resp.Body.Close()
			if resp.StatusCode != tc.status || elapsed < tc.hold {
				t.Errorf("timeout=%s: status %d after %v, want %d after at least %v",
					tc.timeout, resp.StatusCode, elapsed, tc.status, tc.hold)
			}
			if tc.status == http.StatusOK && j.Status != StatusQueued && j.Status != StatusRunning {
				t.Errorf("timeout=%s: job %s, want the parked job unfinished", tc.timeout, j.Status)
			}
		}
		cancel()
	}
}

// getJob GETs one job record and decodes it.
func getJob(t *testing.T, url string) Job {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

// TestWriteJobMatchesEncoder pins the GET body writer, which copies a
// job's report bytes in instead of letting encoding/json re-compact
// them, to the bytes json.NewEncoder(w).Encode(job) writes — for worker
// and gateway jobs, with and without a report, with member set, and
// failed with an error. writeJob puts report and member after every
// other field, so it first checks that they are the last two fields
// encoding/json writes: a field added after them fails here even when
// no job below sets it.
func TestWriteJobMatchesEncoder(t *testing.T) {
	var wire []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Job{})) {
		if f.IsExported() && f.Tag.Get("json") != "-" {
			wire = append(wire, f.Name)
		}
	}
	if n := len(wire); n < 2 || wire[n-2] != "Report" || wire[n-1] != "Member" {
		t.Fatalf("Job's encoded fields are %v; writeJob needs Report then Member last", wire)
	}
	svc, err := New(Config{Shards: 1, Chip: testChip()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := submit(svc, testProgram(6), 11)
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Wait(id)
	if err != nil || done.Status != StatusDone || len(done.Report) == 0 {
		t.Fatalf("job: %s %v (%d report bytes)", done.Status, err, len(done.Report))
	}
	escaped := reportJSON(t, &assay.Report{Program: `<scan> & "sort"`, Duration: 1.5e-7})
	routed := done
	routed.ID, routed.Member = "a-000042", "w0"
	jobs := []struct {
		name string
		job  Job
	}{
		{"worker done", done},
		{"worker queued", Job{ID: "a-000002", Status: StatusQueued, Program: "p", Seed: 3, Eligible: []string{"default"}, Shard: -1}},
		{"worker failed", Job{ID: "a-000003", Status: StatusFailed, Program: "p", Profile: "default", Error: `chip: <bad> "seed"`}},
		{"worker cache hit", Job{ID: "a-000004", Status: StatusDone, Program: "p", Assigned: -1, Shard: -1, CacheHit: true, DedupOf: id, Report: done.Report}},
		{"gateway done", routed},
		{"gateway queued", Job{ID: "a-000005", Status: StatusQueued, Program: "p", Assigned: -1, Shard: -1, Member: "w1"}},
		{"gateway failed", Job{ID: "a-000006", Status: StatusFailed, Recovered: true, Error: "federation: job lost", Member: "w0"}},
		{"escaped report and member", Job{ID: "a-000007", Status: StatusDone, Report: escaped, Member: `w<0>&"1"`}},
	}
	for _, c := range jobs {
		rec := httptest.NewRecorder()
		writeJob(rec, c.job)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.job); err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("%s: writeJob wrote\n%s\nencoding/json writes\n%s", c.name, got, want.String())
		}
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, content type %q", c.name, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
}

// FuzzHandlerQuery sends arbitrary query strings to the list, get and
// long-poll endpoints of an in-process worker holding one done job, and
// arbitrary Last-Event-ID and ?after values to that job's events
// endpoint; a request http.NewRequest rejects is skipped. Every answer
// is 200, 400 or 404. A 200 listing is a ListPage of at most
// MaxListLimit jobs, a 200 job body is the job's, and a 200 stream
// parses frame by frame, each past the resume point.
func FuzzHandlerQuery(f *testing.F) {
	svc := newFakeService(f, 1, 0, func(*shard, *Job) {})
	f.Cleanup(svc.Close)
	id, err := submit(svc, testProgram(2), 1)
	if err != nil {
		f.Fatal(err)
	}
	if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
		f.Fatalf("job %s: %s %v", id, j.Status, err)
	}
	h := svc.Handler()
	for _, seed := range []struct{ query, lastEventID, after string }{
		{"", "", ""},
		{"status=done&limit=1&order=desc", "1", ""},
		{"after=a-000001&limit=0&wait=1", "", "2"},
		{"status=lost&order=up&timeout=-1", "x", "-1"},
		{"limit=99999999999999999999&timeout=NaN", "18446744073709551615", "3"},
		{"%zz&timeout=1e400", " 1", "01"},
	} {
		f.Add(seed.query, seed.lastEventID, seed.after)
	}
	f.Fuzz(func(t *testing.T, query, lastEventID, after string) {
		serve := func(target, lastEventID string) (*httptest.ResponseRecorder, bool) {
			req, err := http.NewRequest(http.MethodGet, "http://worker"+target, nil)
			if err != nil {
				return nil, false
			}
			if lastEventID != "" {
				req.Header.Set("Last-Event-ID", lastEventID)
			}
			// The events handler watches the request's context.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req.WithContext(ctx))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Errorf("GET %s: status %d", target, rec.Code)
			}
			return rec, rec.Code == http.StatusOK
		}
		if rec, ok := serve("/v1/assays?"+query, ""); ok {
			var page ListPage
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil || len(page.Jobs) > MaxListLimit {
				t.Errorf("listing ?%s: %d jobs, %v", query, len(page.Jobs), err)
			}
		}
		for _, q := range []string{query, "wait=1&" + query} {
			if rec, ok := serve("/v1/assays/"+id+"?"+q, ""); ok {
				var j Job
				if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil || j.ID != id {
					t.Errorf("job ?%s: %q, %v", q, j.ID, err)
				}
			}
		}
		rec, ok := serve("/v1/assays/"+id+"/events?after="+url.QueryEscape(after), lastEventID)
		if !ok {
			return
		}
		resume := lastEventID
		if resume == "" {
			resume = after
		}
		from, err := strconv.ParseUint(resume, 10, 64)
		if resume != "" && err != nil {
			t.Fatalf("stream resumed from %q, which the handler should refuse", resume)
		}
		r := stream.NewSSEReader(rec.Body)
		for ev, ok := r.Next(); ok; ev, ok = r.Next() {
			if ev.Seq <= from {
				t.Errorf("resumed after %d: frame %s seq %d", from, ev.Type, ev.Seq)
			}
		}
		if err := r.Err(); err != nil {
			t.Errorf("stream after %d: %v", from, err)
		}
	})
}
