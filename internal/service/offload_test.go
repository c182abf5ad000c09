package service

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"biochip/internal/store"
	"biochip/internal/stream"
)

// finishCapture is a durable store that keeps every finish record the
// service appends — its events as they left the job's ring — and
// refuses them while fail is set.
type finishCapture struct {
	store.Store
	mu   sync.Mutex
	fail bool
	fins map[string]store.FinishRecord
}

func (c *finishCapture) LogFinish(rec store.FinishRecord) error {
	c.mu.Lock()
	c.fins[rec.ID] = rec
	fail := c.fail
	c.mu.Unlock()
	if fail {
		return errors.New("injected finish append failure")
	}
	return c.Store.LogFinish(rec)
}

func (c *finishCapture) finish(id string) store.FinishRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fins[id]
}

// sseBody reads a job's event stream after the cursor from the HTTP
// handler, to its end.
func sseBody(t *testing.T, base, id string, after int) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/assays/%s/events?after=%d", base, id, after))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("events of %s: status %d, %v", id, resp.StatusCode, err)
	}
	return string(body)
}

// renderSSE frames events as the handler writes them.
func renderSSE(evs []stream.Event) string {
	var b strings.Builder
	for _, ev := range evs {
		stream.WriteSSE(&b, ev)
	}
	return b.String()
}

// ringEvents returns the events a job's ring holds in memory.
func ringEvents(svc *Service, id string) []stream.Event {
	svc.mu.Lock()
	j := svc.jobs[id]
	svc.mu.Unlock()
	return j.ring.Events()
}

// startCapture builds a durable service over a finishCapture and serves
// its handler.
func startCapture(t *testing.T) (*Service, *finishCapture, *store.Disk, string) {
	t.Helper()
	d := openTestStore(t, t.TempDir())
	t.Cleanup(func() { d.Close() })
	c := &finishCapture{Store: d, fins: make(map[string]store.FinishRecord)}
	svc, err := New(Config{Shards: 1, Chip: testChip(), Store: c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, c, d, ts.URL
}

// TestDurableRingOffload: once a durable job's finish record is written
// its ring holds no events, and its stream — read from the start, from
// a mid-stream cursor, and by a cache hit sharing the ring — is the log
// serving the very bytes the ring published.
func TestDurableRingOffload(t *testing.T) {
	svc, c, _, base := startCapture(t)
	id, err := submit(svc, testProgram(10), 7)
	if err != nil {
		t.Fatal(err)
	}
	if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
		t.Fatalf("job: %v %v", j.Status, err)
	}
	if n := len(ringEvents(svc, id)); n != 0 {
		t.Fatalf("the ring of a persisted job holds %d events, want 0", n)
	}
	live := c.finish(id).Events
	if len(live) < 10 {
		t.Fatalf("finish record holds %d events", len(live))
	}
	for _, after := range []int{0, len(live) / 2} {
		if got, want := sseBody(t, base, id, after), renderSSE(live[after:]); got != want {
			t.Errorf("SSE after %d differs from the published bytes:\n got %q\nwant %q", after, got, want)
		}
	}
	hit, err := svc.Submit(SubmitRequest{Seed: 7, Program: testProgram(10)})
	if err != nil || hit.Cache != "hit" {
		t.Fatalf("resubmission: %+v %v, want a cache hit", hit, err)
	}
	if got, want := sseBody(t, base, hit.ID, 0), renderSSE(live); got != want {
		t.Errorf("cache hit replays %q, want %q", got, want)
	}
}

// TestDurableRingPinnedOnFailedPersist: when the finish record cannot be
// appended the ring is not offloaded and keeps every event, so the
// job's whole stream is still served from memory, with the bytes the
// ring published.
func TestDurableRingPinnedOnFailedPersist(t *testing.T) {
	svc, c, d, base := startCapture(t)
	c.fail = true
	id, err := submit(svc, testProgram(10), 7)
	if err != nil {
		t.Fatal(err)
	}
	if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
		t.Fatalf("job: %v %v", j.Status, err)
	}
	if st := svc.Stats(); st.PersistErrors != 1 {
		t.Fatalf("persist errors %d, want 1", st.PersistErrors)
	}
	if _, err := d.Events(id); !errors.Is(err, store.ErrUnknownJob) {
		t.Fatalf("the log has the refused record: %v", err)
	}
	live := c.finish(id).Events
	held := ringEvents(svc, id)
	if len(held) != len(live) || len(held) < 10 {
		t.Fatalf("ring holds %d events, the refused record %d", len(held), len(live))
	}
	for _, after := range []int{0, len(live) / 2} {
		if got, want := sseBody(t, base, id, after), renderSSE(live[after:]); got != want {
			t.Errorf("SSE after %d differs from the published bytes:\n got %q\nwant %q", after, got, want)
		}
	}
}

// TestPrivateLog: a service given no store logs to a private one, so a
// finished job lives in the log as on a durable daemon. The stats carry
// a disk store block whose directory exists and whose record count
// rises with a job; the done job's ring holds no events, and its SSE
// replay, read back from the log, equals a serial replay; Close removes
// the directory.
func TestPrivateLog(t *testing.T) {
	svc, err := New(Config{Shards: 1, Chip: testChip()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	before := svc.Stats().Store
	if before == nil || before.Kind != "disk" {
		t.Fatalf("store block %+v, want a disk log", before)
	}
	if _, err := os.Stat(before.Dir); err != nil {
		t.Fatalf("private log directory: %v", err)
	}

	pr := testProgram(6)
	const seed = 11
	id, err := submit(svc, pr, seed)
	if err != nil {
		t.Fatal(err)
	}
	if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
		t.Fatalf("job: %v %v", j.Status, err)
	}
	if after := svc.Stats().Store; after.Dir != before.Dir || after.Records <= before.Records {
		t.Errorf("store block after a job %+v, before %+v: want the same directory, more records", *after, *before)
	}
	if n := len(ringEvents(svc, id)); n != 0 {
		t.Errorf("the ring of a done job holds %d events, want 0", n)
	}
	rd := stream.NewSSEReader(strings.NewReader(sseBody(t, ts.URL, id, 0)))
	var got []stream.Event
	for ev, ok := rd.Next(); ok; ev, ok = rd.Next() {
		got = append(got, ev)
	}
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	_, want := serialStream(t, pr, seed, id)
	if g, w := canonicalJSON(t, got), canonicalJSON(t, want); g != w {
		t.Errorf("SSE replay differs from serial replay:\n got %s\nwant %s", g, w)
	}

	ts.Close()
	svc.Close()
	if _, err := os.Stat(before.Dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("private log directory after Close: %v, want it removed", err)
	}
}
