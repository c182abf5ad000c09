package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
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

// TestGatewayRestartServesFinishedFromLog pins that a finished routed
// job lives in the gateway's log: a gateway restarted over its log
// serves n jobs that finished on a counted member — records, reports,
// full streams and a stream resumed from mid-stream, byte for byte as
// before — without one member request for them. A job a stub member
// still held at the restart resumes its relay and ends exactly once.
func TestGatewayRestartServesFinishedFromLog(t *testing.T) {
	const n = 4
	addr, routes := countedMember(t)
	// held accepts the first submission and holds it; every later one
	// is refused as queue-full, so placement falls over to w0.
	held := newStubMember(t, service.Stats{}, func(i int) (int, interface{}) {
		if i == 0 {
			return accept(i)
		}
		return http.StatusTooManyRequests, service.ErrorBody{Error: "queue full", Queued: intp(8), QueueDepth: 8,
			Backlog: []service.ClassStats{{Profiles: []string{"die40"}, Queued: 8}}}
	})
	release := held.holdJobs()
	members := []MemberSpec{
		{Name: "held", Addr: held.ts.URL, Profiles: die40()},
		{Name: "w0", Addr: addr, Profiles: die40()},
	}
	dir := t.TempDir()
	open := func() (*Gateway, string, func()) {
		st, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{Members: members, Store: st, PollInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		gs := httptest.NewServer(g.Handler())
		return g, gs.URL, func() {
			gs.Close()
			g.Close()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	g, base, stop := open()
	pending, err := g.Submit(service.SubmitRequest{Seed: 1, Program: testProgram(4)})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < n; i++ {
		res, err := g.Submit(service.SubmitRequest{Seed: 100 + uint64(i), Program: testProgram(4)})
		if err != nil {
			t.Fatal(err)
		}
		if j, terminal, err := g.WaitTimeout(res.ID, 30*time.Second); err != nil || !terminal ||
			j.Status != service.StatusDone || j.Member != "w0" {
			t.Fatalf("job %s: %s on %q terminal=%v err=%v, want done on w0", res.ID, j.Status, j.Member, terminal, err)
		}
		ids = append(ids, res.ID)
	}
	// view is what a client reads of a job: its record, with the head
	// fields a restart resets (recovered, assigned, shard, stolen) set
	// alike before and after it, its report, its whole stream and the
	// stream resumed after its tenth event.
	type view struct {
		record                 service.Job
		report, whole, resumed string
	}
	served := func(base, id string) view {
		t.Helper()
		var v view
		resp, body := do(t, http.MethodGet, base+"/v1/assays/"+id, "")
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &v.record) != nil {
			t.Fatalf("GET %s: status %d %.200s", id, resp.StatusCode, body)
		}
		v.report = string(v.record.Report)
		v.record.Report, v.record.Recovered = nil, false
		v.record.Assigned, v.record.Shard, v.record.Stolen = -1, -1, false
		v.whole, v.resumed = sseBody(t, base, id, 0), sseBody(t, base, id, 10)
		return v
	}
	before := make(map[string]view, n)
	for _, id := range ids {
		before[id] = served(base, id)
	}
	stop()
	// The relay has read the events stream of each finished job and
	// fetched its record once; the held job's stream is on its stub.
	if got := routes(); got["events"] != n || got["get"] != n {
		t.Fatalf("member requests before the restart %v, want %d events and %d get", got, n, n)
	}

	g, base, stop = open()
	defer stop()
	if gs := g.Stats().Gateway; gs.Recovered != n+1 || gs.Done != n || gs.Failed != 0 {
		t.Errorf("after restart: recovered %d done %d failed %d, want %d %d 0", gs.Recovered, gs.Done, gs.Failed, n+1, n)
	}
	for _, id := range ids {
		v, b := served(base, id), before[id]
		if !reflect.DeepEqual(v.record, b.record) || v.report != b.report {
			t.Errorf("job %s after restart: %+v, before %+v (reports equal %v)", id, v.record, b.record, v.report == b.report)
		}
		if v.whole != b.whole || v.resumed != b.resumed {
			t.Errorf("job %s: stream after restart differs\n--- after\n%s--- before\n%s", id, v.whole, b.whole)
		}
		if !strings.HasPrefix(v.resumed, "id: 11\n") || !strings.HasSuffix(v.whole, v.resumed) {
			t.Errorf("job %s: resumed stream is not the whole one's tail from seq 11:\n%s", id, v.resumed)
		}
	}
	if got := routes(); got["events"] != n || got["get"] != n {
		t.Errorf("member requests after the restart %v, want no more than the %d events and %d get before it", got, n, n)
	}

	release()
	if j, terminal, err := g.WaitTimeout(pending.ID, 30*time.Second); err != nil || !terminal || j.Status != service.StatusDone {
		t.Fatalf("held job %s after release: %s terminal=%v err=%v, want done", pending.ID, j.Status, terminal, err)
	}
	if whole := sseBody(t, base, pending.ID, 0); strings.Count(whole, "event: job.done\n") != 1 {
		t.Errorf("held job's stream:\n%s\nwant one job.done frame", whole)
	}
	if gs := g.Stats().Gateway; gs.Done != n+1 || gs.Failed != 0 {
		t.Errorf("after the held job ended: done %d failed %d, want %d 0", gs.Done, gs.Failed, n+1)
	}
}

// sseBody returns a job's SSE body on base, read to its end, resumed
// with Last-Event-ID after the given sequence number when it is not 0.
func sseBody(t *testing.T, base, id string, after uint64) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/assays/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(after))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("events of %s: status %d %v", id, resp.StatusCode, err)
	}
	return string(body)
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
// gateway after a member left the members spec. A job that finished on
// that member before the restart is served done from the gateway's
// log, with its report and stream unchanged, and an identical
// submission is a hit on it. A job the member still held at the
// restart fails: its stream is the one job.failed frame, and it
// releases its content address, so an identical resubmission is
// forwarded to a remaining member and runs there.
func TestGatewayRecoveryMemberRemoved(t *testing.T) {
	// worker serves a fresh die40 worker as the named member, so the
	// cases share no member cache.
	worker := func(t *testing.T, name string) MemberSpec {
		_, ts := startWorker(t, die40())
		return MemberSpec{Name: name, Addr: ts.URL, Profiles: die40()}
	}
	type gateway struct {
		*Gateway
		url   string
		close func()
	}
	open := func(t *testing.T, dir string, members ...MemberSpec) gateway {
		t.Helper()
		st, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{Members: members, Store: st, PollInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		gs := httptest.NewServer(g.Handler())
		return gateway{g, gs.URL, func() {
			gs.Close()
			g.Close()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}}
	}
	req := service.SubmitRequest{Seed: 11, Program: testProgram(4)}

	t.Run("finished", func(t *testing.T) {
		w0, w1 := worker(t, "w0"), worker(t, "w1")
		dir := t.TempDir()
		// The members tie, so placement takes w1, first in members order.
		g := open(t, dir, w1, w0)
		res, err := g.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if j, terminal, err := g.WaitTimeout(res.ID, 30*time.Second); err != nil || !terminal ||
			j.Status != service.StatusDone || j.Member != "w1" {
			t.Fatalf("job %s: %s on %q terminal=%v err=%v, want done on w1", res.ID, j.Status, j.Member, terminal, err)
		}
		_, record := do(t, http.MethodGet, g.url+"/v1/assays/"+res.ID, "")
		_, events := do(t, http.MethodGet, g.url+"/v1/assays/"+res.ID+"/events", "")
		g.close()

		g = open(t, dir, w0)
		defer g.close()
		var before, after service.Job
		resp, body := do(t, http.MethodGet, g.url+"/v1/assays/"+res.ID, "")
		if json.Unmarshal(record, &before) != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body, &after) != nil {
			t.Fatalf("GET after restart: status %d %.200s", resp.StatusCode, body)
		}
		// The restored record is the route record's and the finish
		// record's, as a restored worker job reads.
		want := before
		want.Assigned, want.Shard, want.Stolen, want.Recovered = -1, -1, false, true
		if !reflect.DeepEqual(after, want) {
			t.Errorf("GET after restart:\n%s\nwant %+v", body, want)
		}
		if _, body := do(t, http.MethodGet, g.url+"/v1/assays/"+res.ID+"/events", ""); string(body) != string(events) {
			t.Errorf("events after restart differ:\n%s\nbefore\n%s", body, events)
		}
		if again, err := g.Submit(req); err != nil || again.Cache != "hit" || again.ID != res.ID {
			t.Errorf("resubmission = %+v %v, want a hit on %s", again, err, res.ID)
		}
	})

	t.Run("unfinished", func(t *testing.T) {
		stub := newStubMember(t, service.Stats{}, accept)
		defer stub.holdJobs()()
		w0, w1 := worker(t, "w0"), MemberSpec{Name: "w1", Addr: stub.ts.URL, Profiles: die40()}
		dir := t.TempDir()
		g := open(t, dir, w1, w0)
		res, err := g.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if j, _ := g.Get(res.ID); j.Member != "w1" {
			t.Fatalf("job %s routed to %q, want w1", res.ID, j.Member)
		}
		g.close()

		g = open(t, dir, w0)
		defer g.close()
		const removed = "federation: member of routed job removed from members spec"
		resp, body := do(t, http.MethodGet, g.url+"/v1/assays/"+res.ID, "")
		var j service.Job
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &j) != nil ||
			j.Status != service.StatusFailed || j.Error != removed || j.Seed != req.Seed || j.Program != req.Program.Name {
			t.Errorf("GET after restart: status %d %s, want failed with %q, seed and program kept", resp.StatusCode, body, removed)
		}
		resp, body = do(t, http.MethodGet, g.url+"/v1/assays/"+res.ID+"/events", "")
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
	})
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
