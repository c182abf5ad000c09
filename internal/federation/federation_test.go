package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"biochip/internal/assay"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/service"
	"biochip/internal/stream"
)

// die40 is the homogeneous test profile: every worker declares it, so
// placement is free and results must be bit-identical no matter where
// a job lands.
func die40() []service.FleetProfileSpec {
	return []service.FleetProfileSpec{{Name: "die40", Shards: 2, Cols: 40, Rows: 40}}
}

// smallLarge is the heterogeneous test fleet of the service package,
// in members-spec form.
func smallLarge() []service.FleetProfileSpec {
	return []service.FleetProfileSpec{
		{Name: "small", Shards: 1, Cols: 32, Rows: 32},
		{Name: "large", Shards: 1, Cols: 48, Rows: 48},
	}
}

func testProgram(cells int) assay.Program {
	return assay.Program{
		Name: "capture-scan",
		Ops: []assay.Op{
			assay.Load{Kind: particle.ViableCell(), Count: cells},
			assay.Settle{},
			assay.Capture{},
			assay.Scan{Averaging: 8},
			assay.Gather{Anchor: geom.C(1, 1)},
			assay.Scan{Averaging: 8},
			assay.ReleaseAll{},
		},
	}
}

func pinnedLargeProgram() assay.Program {
	pr := testProgram(4)
	pr.Name = "pinned-large"
	pr.Requirements = &assay.Requirements{MinCols: 48, MinRows: 48}
	return pr
}

// startWorker builds one worker daemon from a profile declaration and
// serves it over HTTP.
func startWorker(t *testing.T, profiles []service.FleetProfileSpec) (*service.Service, *httptest.Server) {
	t.Helper()
	cfg := service.FleetSpec{Profiles: profiles}.ServiceConfig()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

// startGateway fronts n freshly started homogeneous workers.
func startGateway(t *testing.T, n int, profiles []service.FleetProfileSpec) *Gateway {
	t.Helper()
	var specs []MemberSpec
	for i := 0; i < n; i++ {
		_, ts := startWorker(t, profiles)
		specs = append(specs, MemberSpec{
			Name: fmt.Sprintf("w%d", i), Addr: ts.URL, Profiles: profiles})
	}
	g, err := New(Config{Members: specs, PollInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// collectSub drains a subscription until end-of-stream (the job's
// terminal event closes the ring), blocking for live events.
func collectSub(sub *stream.Sub) []stream.Event {
	stop := make(chan struct{})
	var out []stream.Event
	for {
		ev, ok := sub.Next(stop)
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// canonicalJSON renders events one per line, each decoded from its
// encoding, with the wall stamp (the one field excluded from the
// determinism contract) zeroed.
func canonicalJSON(t *testing.T, evs []stream.Event) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range evs {
		ev = decodeEvent(t, ev)
		ev.Wall = 0
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.String()
}

// decodeEvent returns the event its encoding (Data) describes in full:
// a relayed event carries only Seq, Type and its Job or Gap block
// decoded, so in-process readers decode the rest.
func decodeEvent(t *testing.T, ev stream.Event) stream.Event {
	t.Helper()
	data, err := ev.Data()
	if err != nil {
		t.Fatal(err)
	}
	var full stream.Event
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatalf("event %d (%s): %v", ev.Seq, ev.Type, err)
	}
	return full
}

// referenceRun executes the batch on a fresh single-node service with
// the same profiles and returns report + canonical stream per job ID.
func referenceRun(t *testing.T, profiles []service.FleetProfileSpec, batch []refJob) map[string]refResult {
	t.Helper()
	cfg := service.FleetSpec{Profiles: profiles}.ServiceConfig()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	out := make(map[string]refResult, len(batch))
	ids := make([]string, len(batch))
	for i, b := range batch {
		res, err := svc.Submit(service.SubmitRequest{Seed: b.seed, Program: b.pr})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = res.ID
	}
	for _, id := range ids {
		j, err := svc.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		sub, ok := svc.SubscribeEvents(id, 0)
		if !ok {
			t.Fatalf("reference: no stream for %s", id)
		}
		evs := collectSub(sub)
		sub.Cancel()
		out[id] = refResult{job: j, stream: canonicalJSON(t, evs)}
	}
	return out
}

type refJob struct {
	pr   assay.Program
	seed uint64
}

type refResult struct {
	job    service.Job
	stream string
}

// mixedBatch is the standard test load: several seeds of two program
// shapes.
func mixedBatch() []refJob {
	var batch []refJob
	for i := 0; i < 4; i++ {
		batch = append(batch, refJob{testProgram(6), 500 + uint64(i)})
	}
	for i := 0; i < 2; i++ {
		batch = append(batch, refJob{testProgram(10), 600 + uint64(i)})
	}
	return batch
}

// TestGatewayBitIdenticalToSingleNode is the tentpole acceptance test:
// the same seeded batch, submitted through a gateway fronting 1, 2 or
// 4 workers, produces the same job IDs, bit-identical reports and
// bit-identical event streams (wall stamps excluded) as a single-node
// service — placement, forwarding and member count never change a bit.
func TestGatewayBitIdenticalToSingleNode(t *testing.T) {
	batch := mixedBatch()
	want := referenceRun(t, die40(), batch)
	for _, members := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			g := startGateway(t, members, die40())
			ids := make([]string, len(batch))
			for i, b := range batch {
				res, err := g.Submit(service.SubmitRequest{Seed: b.seed, Program: b.pr})
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = res.ID
			}
			for i, id := range ids {
				ref, ok := want[id]
				if !ok {
					t.Fatalf("gateway ID %s does not exist single-node", id)
				}
				j, terminal, err := g.WaitTimeout(id, 30*time.Second)
				if err != nil || !terminal {
					t.Fatalf("job %s: terminal=%v err=%v", id, terminal, err)
				}
				if j.Status != service.StatusDone {
					t.Fatalf("job %s: status %s (%s)", id, j.Status, j.Error)
				}
				if !reflect.DeepEqual(j.Report, ref.job.Report) {
					t.Errorf("job %s (seed %d): federated report differs from single-node", id, batch[i].seed)
				}
				sub, ok := g.SubscribeEvents(id, 0)
				if !ok {
					t.Fatalf("no stream for %s", id)
				}
				got := canonicalJSON(t, collectSub(sub))
				sub.Cancel()
				if got != ref.stream {
					t.Errorf("job %s: federated event stream differs from single-node\n--- gateway\n%s--- single-node\n%s",
						id, got, ref.stream)
				}
			}
		})
	}
}

// TestGatewayHeterogeneousPlacement pins requirement-aware forwarding:
// a program only the large profile satisfies must land on a member
// that has it, with the report bit-identical to a serial replay under
// that profile's config (the heterogeneous determinism criterion).
func TestGatewayHeterogeneousPlacement(t *testing.T) {
	// One small-only worker, one small+large worker.
	smallOnly := []service.FleetProfileSpec{{Name: "small", Shards: 1, Cols: 32, Rows: 32}}
	_, tsA := startWorker(t, smallOnly)
	_, tsB := startWorker(t, smallLarge())
	g, err := New(Config{
		Members: []MemberSpec{
			{Name: "a", Addr: tsA.URL, Profiles: smallOnly},
			{Name: "b", Addr: tsB.URL, Profiles: smallLarge()},
		},
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	pr := pinnedLargeProgram()
	res, err := g.Submit(service.SubmitRequest{Seed: 777, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eligible) != 1 || res.Eligible[0] != "large" {
		t.Fatalf("eligible = %v, want [large]", res.Eligible)
	}
	j, terminal, err := g.WaitTimeout(res.ID, 30*time.Second)
	if err != nil || !terminal || j.Status != service.StatusDone {
		t.Fatalf("job: terminal=%v status=%s err=%v (%s)", terminal, j.Status, err, j.Error)
	}
	cfg := service.FleetSpec{Profiles: smallLarge()}.ServiceConfig().Profiles[1].Chip
	cfg.Seed = 777
	want, err := assay.Execute(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.Report, wantJSON) {
		t.Error("federated report differs from serial replay under the large profile")
	}
	// The gateway routed it to the member that has the profile.
	page := g.List(service.ListFilter{})
	if len(page.Jobs) != 1 || page.Jobs[0].Member != "b" {
		t.Fatalf("listing = %+v, want one job on member b", page.Jobs)
	}
	// A program no member fits maps to the usual typed error.
	impossible := testProgram(4)
	impossible.Requirements = &assay.Requirements{MinCols: 4096}
	if _, err := g.Submit(service.SubmitRequest{Seed: 1, Program: impossible}); err == nil {
		t.Fatal("impossible program accepted")
	} else if _, ok := err.(*service.IncompatibleError); !ok {
		t.Fatalf("impossible program: %T, want *service.IncompatibleError", err)
	}
}

// TestGatewaySSEProxyOverHTTP exercises the full proxy path on the
// wire: SSE through the gateway's own HTTP handler, including a
// mid-stream disconnect resumed with Last-Event-ID, must reproduce the
// single-node stream bit-for-bit (wall stamps aside).
func TestGatewaySSEProxyOverHTTP(t *testing.T) {
	batch := []refJob{{testProgram(6), 500}}
	want := referenceRun(t, die40(), batch)

	g := startGateway(t, 2, die40())
	gs := httptest.NewServer(g.Handler())
	defer gs.Close()

	var body strings.Reader
	_ = body
	prog, err := json.Marshal(batch[0].pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(gs.URL+"/v1/assays", "application/json",
		strings.NewReader(fmt.Sprintf(`{"seed": 500, "program": %s}`, prog)))
	if err != nil {
		t.Fatal(err)
	}
	var sub service.SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// First connection: read 3 events, then hang up.
	head := readSSE(t, gs.URL, sub.ID, 0, 3)
	if len(head) != 3 {
		t.Fatalf("head: got %d events, want 3", len(head))
	}
	// Resume with Last-Event-ID; read to end of stream.
	tail := readSSE(t, gs.URL, sub.ID, head[len(head)-1].Seq, -1)
	got := canonicalJSON(t, append(head, tail...))
	if got != want[sub.ID].stream {
		t.Errorf("proxied SSE stream differs from single-node\n--- gateway\n%s--- single-node\n%s",
			got, want[sub.ID].stream)
	}
}

// readSSE reads events for one job from the gateway's SSE endpoint,
// resuming after the given sequence number, until max events (-1: until
// the stream ends) or a terminal event. Each event is decoded from its
// encoding in full.
func readSSE(t *testing.T, base, id string, after uint64, max int) []stream.Event {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	rd := stream.NewSSEReader(resp.Body)
	var out []stream.Event
	for {
		ev, ok := rd.Next()
		if !ok {
			if err := rd.Err(); err != nil {
				t.Fatalf("events: %v", err)
			}
			return out
		}
		out = append(out, decodeEvent(t, ev))
		if max > 0 && len(out) == max {
			return out
		}
		if ev.Type == stream.JobDone || ev.Type == stream.JobFailed {
			return out
		}
	}
}

// TestGatewayCacheDedup pins the gateway-level result cache: identical
// submissions coalesce onto or hit the routed root without a second
// forward, returning the root's ID.
func TestGatewayCacheDedup(t *testing.T) {
	g := startGateway(t, 2, die40())
	pr := testProgram(5)

	root, err := g.Submit(service.SubmitRequest{Seed: 42, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if root.Cache != "" {
		t.Fatalf("first submission: cache %q, want none", root.Cache)
	}
	dup, err := g.Submit(service.SubmitRequest{Seed: 42, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != root.ID {
		t.Fatalf("duplicate got ID %s, want root %s", dup.ID, root.ID)
	}
	if dup.Cache != "coalesced" && dup.Cache != "hit" {
		t.Fatalf("duplicate: cache %q, want coalesced or hit", dup.Cache)
	}
	if _, terminal, err := g.WaitTimeout(root.ID, 30*time.Second); err != nil || !terminal {
		t.Fatalf("wait: terminal=%v err=%v", terminal, err)
	}
	late, err := g.Submit(service.SubmitRequest{Seed: 42, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if late.Cache != "hit" || late.ID != root.ID || late.DedupOf != root.ID {
		t.Fatalf("late duplicate = %+v, want hit on root %s", late, root.ID)
	}
	// A different seed is a different content address: forwarded.
	other, err := g.Submit(service.SubmitRequest{Seed: 43, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cache != "" || other.ID == root.ID {
		t.Fatalf("different seed = %+v, want fresh forward", other)
	}
	st := g.Stats()
	if st.Gateway.Forwarded != 2 {
		t.Errorf("forwarded = %d, want 2", st.Gateway.Forwarded)
	}
	if st.Gateway.Cache == nil || st.Gateway.Cache.Hits < 1 {
		t.Errorf("gateway cache stats = %+v, want >= 1 hit", st.Gateway.Cache)
	}
}
