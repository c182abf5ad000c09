package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"biochip/internal/service"
	"biochip/internal/store"
	"biochip/internal/stream"
)

// TestGatewayRestartReresolvesRoutedJobs pins the durable-binding
// contract: a gateway restarted over its route log serves every job it
// ever acked — reports, event streams and the content-addressed dedup
// index — by re-resolving against the members, without re-forwarding
// anything.
func TestGatewayRestartReresolvesRoutedJobs(t *testing.T) {
	_, ts := startWorker(t, die40())
	members := []MemberSpec{{Name: "w0", Addr: ts.URL, Profiles: die40()}}
	dir := t.TempDir()

	open := func() (*Gateway, *store.Disk) {
		st, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{Members: members, Store: st, PollInterval: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return g, st
	}

	g1, st1 := open()
	batch := mixedBatch()
	ids := make([]string, len(batch))
	reports := make(map[string]interface{}, len(batch))
	streams := make(map[string]string, len(batch))
	for i, b := range batch {
		res, err := g1.Submit(service.SubmitRequest{Seed: b.seed, Program: b.pr})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = res.ID
	}
	for _, id := range ids {
		j, terminal, err := g1.WaitTimeout(id, 30*time.Second)
		if err != nil || !terminal || j.Status != service.StatusDone {
			t.Fatalf("job %s: terminal=%v status=%s err=%v", id, terminal, j.Status, err)
		}
		reports[id] = j.Report
		sub, _ := g1.SubscribeEvents(id, 0)
		streams[id] = canonicalJSON(t, collectSub(sub))
		sub.Cancel()
	}
	g1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	g2, st2 := open()
	defer func() { g2.Close(); st2.Close() }()
	gs := g2.Stats()
	if gs.Gateway.Recovered != uint64(len(batch)) {
		t.Fatalf("recovered = %d, want %d", gs.Gateway.Recovered, len(batch))
	}
	for _, id := range ids {
		j, terminal, err := g2.WaitTimeout(id, 30*time.Second)
		if err != nil || !terminal || j.Status != service.StatusDone {
			t.Fatalf("recovered job %s: terminal=%v status=%s err=%v", id, terminal, j.Status, err)
		}
		if !j.Recovered {
			t.Errorf("job %s not marked recovered", id)
		}
		if !reflect.DeepEqual(j.Report, reports[id]) {
			t.Errorf("job %s: post-restart report differs", id)
		}
		sub, ok := g2.SubscribeEvents(id, 0)
		if !ok {
			t.Fatalf("recovered job %s: no stream", id)
		}
		got := canonicalJSON(t, collectSub(sub))
		sub.Cancel()
		if got != streams[id] {
			t.Errorf("job %s: post-restart stream differs\n--- after\n%s--- before\n%s", id, got, streams[id])
		}
	}
	// The dedup index survives: an identical submission hits the
	// recovered root instead of forwarding.
	res, err := g2.Submit(service.SubmitRequest{Seed: batch[0].seed, Program: batch[0].pr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "hit" || res.ID != ids[0] {
		t.Fatalf("post-restart duplicate = %+v, want hit on %s", res, ids[0])
	}
	if st := g2.Stats(); st.Gateway.Forwarded != 0 {
		t.Errorf("post-restart forwarded = %d, want 0", st.Gateway.Forwarded)
	}
}

// restartableWorker is a worker daemon on a fixed address with a
// durable store, built to be killed and resurrected mid-test.
type restartableWorker struct {
	t    *testing.T
	dir  string
	addr string
	svc  *service.Service
	st   *store.Disk
	srv  *http.Server
}

func startRestartableWorker(t *testing.T, addr string) *restartableWorker {
	t.Helper()
	w := &restartableWorker{t: t, dir: t.TempDir(), addr: addr}
	w.start()
	return w
}

func (w *restartableWorker) start() {
	w.t.Helper()
	st, err := store.Open(w.dir, store.Options{NoSync: true})
	if err != nil {
		w.t.Fatal(err)
	}
	cfg := service.FleetSpec{Profiles: die40()}.ServiceConfig()
	cfg.Store = st
	svc, err := service.New(cfg)
	if err != nil {
		w.t.Fatal(err)
	}
	l, err := net.Listen("tcp", w.addr)
	if err != nil {
		w.t.Fatal(err)
	}
	w.addr = l.Addr().String()
	w.svc, w.st = svc, st
	w.srv = &http.Server{Handler: svc.Handler()}
	go w.srv.Serve(l)
}

// stop kills the worker: HTTP connections die first (so relays see a
// plain disconnect, not the close-time failure events), then the
// service and its store shut down.
func (w *restartableWorker) stop() {
	w.t.Helper()
	w.srv.Close()
	w.svc.Close()
	if err := w.st.Close(); err != nil {
		w.t.Fatal(err)
	}
}

// TestGatewayMidStreamWorkerRestart is the hard acceptance case: a
// worker dies while the gateway is relaying its event streams and
// comes back on the same address over the same durable log. The
// gateway's relays reconnect with their resume cursors; the restarted
// worker serves finished jobs from its log and deterministically
// re-executes the interrupted ones; every stream collected through the
// gateway — spanning the restart — is bit-identical to single-node,
// with no relay-invented gaps and no duplicates.
func TestGatewayMidStreamWorkerRestart(t *testing.T) {
	batch := mixedBatch()
	want := referenceRun(t, die40(), batch)

	w := startRestartableWorker(t, "127.0.0.1:0")
	g, err := New(Config{
		Members:      []MemberSpec{{Name: "w0", Addr: "http://" + w.addr, Profiles: die40()}},
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	ids := make([]string, len(batch))
	for i, b := range batch {
		res, err := g.Submit(service.SubmitRequest{Seed: b.seed, Program: b.pr})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = res.ID
	}
	// Start live stream collection for every job before the kill, so
	// the relay connections are up mid-stream when the worker dies.
	streams := make([]string, len(batch))
	var wg sync.WaitGroup
	for i, id := range ids {
		sub, ok := g.SubscribeEvents(id, 0)
		if !ok {
			t.Fatalf("no stream for %s", id)
		}
		wg.Add(1)
		go func(i int, sub *stream.Sub) {
			defer wg.Done()
			defer sub.Cancel()
			streams[i] = canonicalJSON(t, collectSub(sub))
		}(i, sub)
	}

	// Let the first job finish, then kill the worker under the open
	// relays and bring it back on the same address and log.
	if _, terminal, err := g.WaitTimeout(ids[0], 30*time.Second); err != nil || !terminal {
		t.Fatalf("first job: terminal=%v err=%v", terminal, err)
	}
	w.stop()
	w.start()
	defer w.stop()

	for i, id := range ids {
		j, terminal, err := g.WaitTimeout(id, 60*time.Second)
		if err != nil || !terminal {
			t.Fatalf("job %s: terminal=%v err=%v", id, terminal, err)
		}
		if j.Status != service.StatusDone {
			t.Fatalf("job %s: status %s (%s)", id, j.Status, j.Error)
		}
		if !reflect.DeepEqual(j.Report, want[id].job.Report) {
			t.Errorf("job %s (seed %d): report across worker restart differs from single-node", id, batch[i].seed)
		}
	}
	wg.Wait()
	for i, id := range ids {
		if streams[i] != want[id].stream {
			t.Errorf("job %s: stream across worker restart differs from single-node\n--- gateway\n%s--- single-node\n%s",
				id, streams[i], want[id].stream)
		}
	}
}

// TestGatewayNonDurableMemberLosesJob pins the documented failure
// mode: when a member without -data restarts, its private log goes
// with it and its jobs are gone; the gateway fails them explicitly
// (rather than hanging) and the mirrored stream ends with the terminal
// failure event.
func TestGatewayNonDurableMemberLosesJob(t *testing.T) {
	// A worker without -data on a fixed address.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	cfg := service.FleetSpec{Profiles: die40()}.ServiceConfig()
	cfg.QueueDepth = 64
	svc1, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := &http.Server{Handler: svc1.Handler()}
	go srv1.Serve(l)

	g, err := New(Config{
		Members:      []MemberSpec{{Name: "w0", Addr: "http://" + addr, Profiles: die40()}},
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Queue enough work that some jobs are still pending at the kill.
	var ids []string
	for i := 0; i < 6; i++ {
		res, err := g.Submit(service.SubmitRequest{Seed: 300 + uint64(i), Program: testProgram(6)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
	}
	srv1.Close()
	svc1.Close()

	// Fresh worker, same address, no memory of the jobs.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &http.Server{Handler: svc2.Handler()}
	go srv2.Serve(l2)
	defer func() { srv2.Close(); svc2.Close() }()

	lost := 0
	for _, id := range ids {
		j, terminal, err := g.WaitTimeout(id, 60*time.Second)
		if err != nil || !terminal {
			t.Fatalf("job %s: terminal=%v err=%v", id, terminal, err)
		}
		if j.Status == service.StatusFailed {
			lost++
			sub, ok := g.SubscribeEvents(id, 0)
			if !ok {
				t.Fatalf("lost job %s: no stream", id)
			}
			evs := collectSub(sub)
			sub.Cancel()
			if len(evs) == 0 || evs[len(evs)-1].Type != stream.JobFailed {
				t.Errorf("lost job %s: stream does not end in job.failed: %+v", id, evs)
			}
		}
	}
	if lost == 0 {
		t.Error("no job was lost — the kill landed after the whole batch finished; tighten the batch")
	}
}

// TestGatewayRecoveryMemberRemoved pins the restart of a durable
// gateway after a member left the members spec: the job routed to that
// member fails, its stream is the one job.failed frame, and it releases
// its content address, so an identical resubmission is forwarded to a
// remaining member and runs there.
func TestGatewayRecoveryMemberRemoved(t *testing.T) {
	_, ts0 := startWorker(t, die40())
	_, ts1 := startWorker(t, die40())
	w0 := MemberSpec{Name: "w0", Addr: ts0.URL, Profiles: die40()}
	w1 := MemberSpec{Name: "w1", Addr: ts1.URL, Profiles: die40()}
	dir := t.TempDir()
	open := func(members ...MemberSpec) (*Gateway, *store.Disk) {
		st, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{Members: members, Store: st, PollInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return g, st
	}
	req := service.SubmitRequest{Seed: 11, Program: testProgram(4)}

	// The members tie, so placement takes w1, first in members order.
	g, st := open(w1, w0)
	res, err := g.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j, terminal, err := g.WaitTimeout(res.ID, 30*time.Second); err != nil || !terminal || j.Member != "w1" {
		t.Fatalf("job %s: terminal=%v member %q err=%v, want done on w1", res.ID, terminal, j.Member, err)
	}
	g.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	g, st = open(w0)
	defer func() { g.Close(); st.Close() }()
	gs := httptest.NewServer(g.Handler())
	defer gs.Close()
	const removed = "federation: member of routed job removed from members spec"
	resp, body := do(t, http.MethodGet, gs.URL+"/v1/assays/"+res.ID, "")
	var j service.Job
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &j) != nil ||
		j.Status != service.StatusFailed || j.Error != removed || j.Seed != req.Seed || j.Program != req.Program.Name {
		t.Errorf("GET after restart: status %d %s, want failed with %q, seed and program kept", resp.StatusCode, body, removed)
	}
	resp, body = do(t, http.MethodGet, gs.URL+"/v1/assays/"+res.ID+"/events", "")
	want := fmt.Sprintf("id: 1\nevent: job.failed\ndata: {\"seq\":1,\"type\":\"job.failed\",\"t\":0,\"job\":{\"id\":%q},\"error\":%q}\n\n",
		res.ID, removed)
	if resp.StatusCode != http.StatusOK || string(body) != want {
		t.Errorf("events after restart: status %d\n%q\nwant\n%q", resp.StatusCode, body, want)
	}
	again, err := g.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cache != "" || again.ID == res.ID {
		t.Fatalf("resubmission = %+v, want a fresh forward", again)
	}
	if j, terminal, err := g.WaitTimeout(again.ID, 30*time.Second); err != nil || !terminal ||
		j.Status != service.StatusDone || j.Member != "w0" {
		t.Errorf("resubmitted job %s: %s on %q terminal=%v err=%v (%s), want done on w0",
			again.ID, j.Status, j.Member, terminal, err, j.Error)
	}
}

// TestGatewayListSevenDigitIDs pins gateway job IDs past a-999999: a
// route log running a-999998 to a-1000001 lists in sequence order, the
// newest-first page of one is a-1000001, and the next job is
// a-1000002. The logged jobs' member left the members spec, so they
// restore as failed without a member call.
func TestGatewayListSevenDigitIDs(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids := []string{"a-999998", "a-999999", "a-1000000", "a-1000001"}
	for i, id := range ids {
		if err := st.LogRoute(store.RouteRecord{ID: id, Member: "gone", RemoteID: service.JobID(i + 1), Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	stub := newStubMember(t, service.Stats{}, accept)
	defer stub.holdJobs()()
	g, err := New(Config{Members: []MemberSpec{{Name: "w0", Addr: stub.ts.URL, Profiles: die40()}},
		Store: st, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var listed []string
	for _, j := range g.List(service.ListFilter{}).Jobs {
		listed = append(listed, j.ID)
	}
	if !reflect.DeepEqual(listed, ids) {
		t.Errorf("listing %v, want %v", listed, ids)
	}
	if page := g.List(service.ListFilter{Newest: true, Limit: 1}); len(page.Jobs) != 1 || page.Jobs[0].ID != "a-1000001" {
		t.Errorf("newest job listed: %+v, want a-1000001", page.Jobs)
	}
	if res, err := g.Submit(service.SubmitRequest{Seed: 9, Program: testProgram(4)}); err != nil || res.ID != "a-1000002" {
		t.Errorf("next submission: %+v %v, want a-1000002", res, err)
	}
}

// TestGatewayPrivateLog: a gateway given no store logs its routes to a
// private log. The stats carry a disk store block whose directory
// exists and whose record count rises with a routed job, and Close
// removes the directory.
func TestGatewayPrivateLog(t *testing.T) {
	g := startGateway(t, 1, die40())
	before := g.Stats().Gateway.Store
	if before == nil || before.Kind != "disk" {
		t.Fatalf("store block %+v, want a disk log", before)
	}
	if _, err := os.Stat(before.Dir); err != nil {
		t.Fatalf("private log directory: %v", err)
	}
	res, err := g.Submit(service.SubmitRequest{Seed: 9, Program: testProgram(6)})
	if err != nil {
		t.Fatal(err)
	}
	if j, terminal, err := g.WaitTimeout(res.ID, 30*time.Second); err != nil || !terminal || j.Status != service.StatusDone {
		t.Fatalf("job %s: %s terminal=%v err=%v", res.ID, j.Status, terminal, err)
	}
	if after := g.Stats().Gateway.Store; after.Dir != before.Dir || after.Records <= before.Records {
		t.Errorf("store block after a job %+v, before %+v: want the same directory, more records", *after, *before)
	}
	g.Close()
	if _, err := os.Stat(before.Dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("private log directory after Close: %v, want it removed", err)
	}
}
