package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"biochip/internal/assay"
	"biochip/internal/stream"
)

// countingRuns wraps the service's runner with an execution counter, so
// cache tests can assert how many times the physics actually ran.
func countingRuns(svc *Service) *atomic.Int32 {
	var n atomic.Int32
	inner := svc.run
	svc.run = func(sh *shard, j *Job) (*assay.Report, error) {
		n.Add(1)
		return inner(sh, j)
	}
	return &n
}

// TestCacheHitBitIdentical is the cache acceptance test (run in CI under
// -race -count=2): a duplicate submission answered from the result cache
// must return a report and an event stream bit-identical — minus the
// wall-clock stamps — to a fresh serial ExecuteOnStream replay of the
// same (program, seed). Covered on both tiers: in-memory only, and
// durable (where the stream replays off the persisted log).
func TestCacheHitBitIdentical(t *testing.T) {
	pr := testProgram(10)
	const seed = 4242
	// The alias shares the root's event ring, so its stream carries the
	// root's job ID — the first submission on a fresh service.
	wantRep, wantEvs := serialStream(t, pr, seed, "a-000001")
	want := canonicalJSON(t, wantEvs)

	for _, durable := range []bool{false, true} {
		name := "in-memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Shards: 2, Chip: testChip()}
			if durable {
				cfg.Store = openTestStore(t, t.TempDir())
			}
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			execs := countingRuns(svc)

			res1, err := svc.Submit(SubmitRequest{Seed: seed, Program: pr})
			if err != nil {
				t.Fatal(err)
			}
			if res1.Cache != "" || res1.ID != "a-000001" {
				t.Fatalf("first submission: cache %q id %s", res1.Cache, res1.ID)
			}
			root, err := svc.Wait(res1.ID)
			if err != nil || root.Status != StatusDone {
				t.Fatalf("root: %v %v", root.Status, err)
			}

			res2, err := svc.Submit(SubmitRequest{Seed: seed, Program: pr})
			if err != nil {
				t.Fatal(err)
			}
			if res2.Cache != "hit" || res2.DedupOf != res1.ID || res2.ID == res1.ID {
				t.Fatalf("duplicate: %+v, want a hit aliasing %s under a fresh id", res2, res1.ID)
			}
			alias, err := svc.Wait(res2.ID) // born terminal: returns instantly
			if err != nil || alias.Status != StatusDone {
				t.Fatalf("alias: %v %v", alias.Status, err)
			}
			if !alias.CacheHit || alias.DedupOf != res1.ID {
				t.Errorf("alias provenance: CacheHit %v DedupOf %q", alias.CacheHit, alias.DedupOf)
			}
			if n := execs.Load(); n != 1 {
				t.Errorf("%d executions, want 1 (the hit must not run)", n)
			}

			if !bytes.Equal(alias.Report, wantRep) {
				t.Error("cache-hit report differs from serial replay")
			}
			if got := canonicalJSON(t, collectJobEvents(t, svc, res2.ID, 0)); got != want {
				t.Errorf("cache-hit event stream differs from serial replay:\n got %s\nwant %s", got, want)
			}

			st := svc.Stats()
			if st.Cache == nil {
				t.Fatal("stats carry no cache block")
			}
			if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
				t.Errorf("cache stats %+v, want 1 hit, 1 miss, 1 entry", *st.Cache)
			}
			if st.Done != 2 {
				t.Errorf("stats.Done = %d, want 2 (root + alias)", st.Done)
			}
		})
	}
}

// TestSingleflightCoalesce pins the in-flight dedup path: N identical
// submissions while the first is still executing all return the same job
// ID with "coalesced" provenance, the physics runs exactly once, and an
// identical submission after completion is a plain cache hit.
func TestSingleflightCoalesce(t *testing.T) {
	release := make(chan struct{})
	svc, err := New(Config{Shards: 2, Chip: testChip()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var execs atomic.Int32
	inner := svc.run
	svc.run = func(sh *shard, j *Job) (*assay.Report, error) {
		execs.Add(1)
		<-release
		return inner(sh, j)
	}

	pr := testProgram(10)
	res1, err := svc.Submit(SubmitRequest{Seed: 7, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	const dups = 5
	for i := 0; i < dups; i++ {
		res, err := svc.Submit(SubmitRequest{Seed: 7, Program: pr})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != "coalesced" || res.ID != res1.ID {
			t.Fatalf("duplicate %d: cache %q id %s, want coalesced onto %s", i, res.Cache, res.ID, res1.ID)
		}
	}
	// A different seed is new work, not a duplicate.
	other, err := svc.Submit(SubmitRequest{Seed: 8, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cache != "" || other.ID == res1.ID {
		t.Fatalf("different seed: %+v, want a fresh executing job", other)
	}

	close(release)
	if j, err := svc.Wait(res1.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("root: %v %v", j.Status, err)
	}
	if j, err := svc.Wait(other.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("other seed: %v %v", j.Status, err)
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("%d executions, want 2 (one per distinct key)", n)
	}

	// The in-flight window has closed: now it is a cache hit.
	res, err := svc.Submit(SubmitRequest{Seed: 7, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "hit" || res.DedupOf != res1.ID {
		t.Fatalf("after completion: %+v, want hit of %s", res, res1.ID)
	}
	st := svc.Stats()
	if st.Cache.Coalesced != dups {
		t.Errorf("stats.Cache.Coalesced = %d, want %d", st.Cache.Coalesced, dups)
	}
	if st.Cache.Inflight != 0 {
		t.Errorf("stats.Cache.Inflight = %d after drain, want 0", st.Cache.Inflight)
	}
}

// TestCacheDisabled: with the cache off, identical submissions all
// execute and stats carry no cache block — the pre-cache behavior.
func TestCacheDisabled(t *testing.T) {
	svc, err := New(Config{Shards: 1, Chip: testChip(), Cache: CacheConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	execs := countingRuns(svc)
	pr := testProgram(10)
	for i := 0; i < 2; i++ {
		res, err := svc.Submit(SubmitRequest{Seed: 7, Program: pr})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != "" {
			t.Fatalf("submission %d: cache %q with cache disabled", i, res.Cache)
		}
		if j, err := svc.Wait(res.ID); err != nil || j.Status != StatusDone {
			t.Fatalf("job %d: %v %v", i, j.Status, err)
		}
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("%d executions, want 2", n)
	}
	if svc.Stats().Cache != nil {
		t.Error("stats carry a cache block with the cache disabled")
	}
}

// TestProfileNoCache: a job eligible for a NoCache profile always
// executes, even with the cache enabled fleet-wide.
func TestProfileNoCache(t *testing.T) {
	svc, err := New(Config{Profiles: []Profile{
		{Name: "burnin", Shards: 1, Chip: testChip(), NoCache: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	execs := countingRuns(svc)
	pr := testProgram(10)
	for i := 0; i < 2; i++ {
		res, err := svc.Submit(SubmitRequest{Seed: 7, Program: pr})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != "" {
			t.Fatalf("submission %d: cache %q on a no-cache profile", i, res.Cache)
		}
		if j, err := svc.Wait(res.ID); err != nil || j.Status != StatusDone {
			t.Fatalf("job %d: %v %v", i, j.Status, err)
		}
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("%d executions, want 2", n)
	}
	st := svc.Stats()
	if st.Cache == nil {
		t.Fatal("stats carry no cache block (cache is enabled, the profile opted out)")
	}
	if st.Cache.Misses != 0 || st.Cache.Hits != 0 {
		t.Errorf("non-cacheable submissions counted: %+v", *st.Cache)
	}
}

// TestCacheRecoveryWarm: after a restart a durable service answers a
// duplicate of anything it ever computed from the disk tier — no
// re-execution — and the replayed-from-log alias stream is bit-identical
// to the original. Pre-restart aliases are themselves recovered with
// their provenance intact.
func TestCacheRecoveryWarm(t *testing.T) {
	dir := t.TempDir()
	pr := testProgram(10)
	const seed = 99

	d := openTestStore(t, dir)
	svc, err := New(Config{Shards: 1, Chip: testChip(), Store: d})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := svc.Submit(SubmitRequest{Seed: seed, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if j, err := svc.Wait(res1.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("root: %v %v", j.Status, err)
	}
	resHit, err := svc.Submit(SubmitRequest{Seed: seed, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if resHit.Cache != "hit" {
		t.Fatalf("pre-restart duplicate: %+v", resHit)
	}
	reference := canonicalJSON(t, collectJobEvents(t, svc, res1.ID, 0))
	svc.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openTestStore(t, dir)
	svc2, err := New(Config{Shards: 1, Chip: testChip(), Store: d2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	defer d2.Close()
	execs := countingRuns(svc2)

	// The pre-restart alias came back with its provenance.
	alias, ok := svc2.Get(resHit.ID)
	if !ok {
		t.Fatalf("alias %s not recovered", resHit.ID)
	}
	if alias.Status != StatusDone || !alias.CacheHit || alias.DedupOf != res1.ID {
		t.Errorf("recovered alias: status %s CacheHit %v DedupOf %q", alias.Status, alias.CacheHit, alias.DedupOf)
	}

	// A duplicate against the restarted daemon is served without running.
	res2, err := svc2.Submit(SubmitRequest{Seed: seed, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cache != "hit" || res2.DedupOf != res1.ID {
		t.Fatalf("post-restart duplicate: %+v, want hit of %s", res2, res1.ID)
	}
	if n := execs.Load(); n != 0 {
		t.Errorf("%d executions after restart, want 0", n)
	}
	if got := canonicalJSON(t, collectJobEvents(t, svc2, res2.ID, 0)); got != reference {
		t.Errorf("post-restart alias stream differs from the original:\n got %s\nwant %s", got, reference)
	}
}

// TestCacheSSEResume: standard Last-Event-ID reconnection works on a
// stream served from the cache — the alias shares the root's ring, and
// the concatenated head+tail must equal an uninterrupted read.
func TestCacheSSEResume(t *testing.T) {
	svc, err := New(Config{Shards: 1, Chip: testChip()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	pr := testProgram(10)
	res1, err := svc.Submit(SubmitRequest{Seed: 7, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if j, err := svc.Wait(res1.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("root: %v %v", j.Status, err)
	}
	res2, err := svc.Submit(SubmitRequest{Seed: 7, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cache != "hit" {
		t.Fatalf("duplicate: %+v", res2)
	}

	// Connection 1 against the alias: read a head, hang up.
	const preCut = 5
	resp, err := http.Get(ts.URL + "/v1/assays/" + res2.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	head, ended := readSSEFrames(bufio.NewReader(resp.Body), preCut)
	resp.Body.Close()
	if ended || len(head) != preCut {
		t.Fatalf("head read: %d frames, ended %v", len(head), ended)
	}
	lastID := ""
	for _, f := range head {
		if f.id != "" {
			lastID = f.id
		}
	}
	if lastID == "" {
		t.Fatal("no event ids in the head")
	}

	// Connection 2: resume via Last-Event-ID, read to end-of-stream.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/assays/"+res2.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", lastID)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tail, ended := readSSEFrames(bufio.NewReader(resp2.Body), 0)
	if !ended {
		t.Fatal("resumed stream did not terminate")
	}

	joined := decodeFrames(t, append(append([]sseFrame{}, head...), tail...))
	want := collectJobEvents(t, svc, res2.ID, 0)
	if len(joined) != len(want) {
		t.Fatalf("reconnected run has %d events, uninterrupted stream %d", len(joined), len(want))
	}
	for i := range joined {
		if joined[i].Seq != uint64(i+1) {
			t.Fatalf("concatenated event %d has seq %d: gap or duplicate", i, joined[i].Seq)
		}
		if joined[i].Type == stream.Gap {
			t.Fatalf("event %d is a gap on a cache-served stream", i)
		}
	}
	if got, ref := canonicalJSON(t, joined), canonicalJSON(t, want); got != ref {
		t.Errorf("resumed stream differs:\n got %s\nwant %s", got, ref)
	}
}

// TestQueueFullBacklogBody: the 429 body names the per-class backlog so
// clients can tell genuine saturation from a duplicate storm, and the
// typed error carries the same snapshot in-process.
func TestQueueFullBacklogBody(t *testing.T) {
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
	var body struct {
		Error      string       `json:"error"`
		Queued     *int         `json:"queued"`
		QueueDepth int          `json:"queue_depth"`
		Backlog    []ClassStats `json:"backlog"`
	}
	saw429 := false
	for i := 0; i < 1000 && !saw429; i++ {
		payload := fmt.Sprintf(`{"seed":%d,"program":%s}`, i, pr)
		resp, err := http.Post(ts.URL+"/v1/assays", "application/json",
			bytes.NewReader([]byte(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Fatal("bounded queue never surfaced 429 over HTTP")
	}
	if body.Queued == nil || *body.Queued != 1 || body.QueueDepth != 1 {
		t.Errorf("429 body queued %v depth %d, want 1/1", body.Queued, body.QueueDepth)
	}
	if len(body.Backlog) != 1 || body.Backlog[0].Queued != 1 || len(body.Backlog[0].Profiles) == 0 {
		t.Errorf("429 backlog %+v, want one class with 1 queued", body.Backlog)
	}

	// The in-process form: a *QueueFullError that still unwraps to
	// ErrQueueFull and renders the backlog in its message.
	var full *QueueFullError
	for i := 0; i < 1000; i++ {
		_, err := svc.Submit(SubmitRequest{Seed: uint64(10000 + i), Program: testProgram(4)})
		if err == nil {
			continue
		}
		if !errors.As(err, &full) {
			t.Fatalf("queue-full error has type %T: %v", err, err)
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Error("typed error does not unwrap to ErrQueueFull")
		}
		break
	}
	if full == nil {
		t.Fatal("queue never reported backpressure in-process")
	}
	if full.Queued != 1 || full.Depth != 1 || len(full.Classes) != 1 {
		t.Errorf("typed error %+v, want 1/1 with one class", full)
	}
}
