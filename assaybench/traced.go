package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"biochip/internal/assay"
	"biochip/internal/cache"
	"biochip/internal/chip"
	"biochip/internal/federation"
	"biochip/internal/obs"
	"biochip/internal/service"
	"biochip/internal/store"
	"biochip/internal/stream"
)

// The traced run hosts the composition cmd/assayd builds in this
// process and times calls into each layer's public entry points from
// outside: the HTTP handlers (routeTimer), the durable store
// (timedStore), the client cycle, direct calls on every generated
// request, and a serial replay of every job. Queue wait and
// finish/persist run under the service mutex with no public call
// around them; they come from the spans the daemon itself serves at
// /v1/assays/{id}/trace.

// routeCall is one request a hosted handler served.
type routeCall struct {
	route      string // submit, get, events, stats, …
	wait       bool   // a ?wait=1 long-poll
	start, end time.Time
}

// routeTimer wraps a daemon's HTTP handler and times every request per
// route. On gateway members it also stamps when each SSE frame leaves
// the member, so the relay hop can be timed against the client.
type routeTimer struct {
	next   http.Handler
	tr     *tracer
	layer  string
	member string     // member name, when frames are stamped
	frames *frameLog  // nil: no stamping
	mu     sync.Mutex // guards calls
	calls  []routeCall
}

func routeOf(r *http.Request) (route, job string) {
	p := strings.TrimPrefix(r.URL.Path, "/v1/")
	switch {
	case r.Method == http.MethodPost && p == "assays":
		return "submit", ""
	case strings.HasPrefix(p, "assays/"):
		id, rest, _ := strings.Cut(strings.TrimPrefix(p, "assays/"), "/")
		if rest == "" {
			return "get", id
		}
		return rest, id
	}
	return p, ""
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route, job := routeOf(r)
	if rt.frames != nil && route == "events" {
		w = &stampWriter{ResponseWriter: w, log: rt.frames, key: rt.member + "/" + job + "/"}
	}
	start := time.Now()
	rt.next.ServeHTTP(w, r)
	end := time.Now()
	rt.mu.Lock()
	rt.calls = append(rt.calls, routeCall{route: route, wait: r.URL.Query().Get("wait") != "", start: start, end: end})
	rt.mu.Unlock()
	rt.tr.add(span{ID: rt.tr.newID("h"), Parent: r.Header.Get("X-Bench-Parent"), Layer: rt.layer,
		Name: "http " + route, Job: job, Start: secs(start), End: secs(end)})
}

// durations returns the ms durations of the route's calls that started
// inside [from, to].
func (rt *routeTimer) durations(route string, wait bool, from, to time.Time) []float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []float64
	for _, c := range rt.calls {
		if c.route == route && c.wait == wait && !c.start.Before(from) && !c.start.After(to) {
			out = append(out, ms(c.end.Sub(c.start)))
		}
	}
	return out
}

// frameLog records when each SSE frame was flushed by a member,
// keyed member/job/seq.
type frameLog struct {
	mu sync.Mutex
	at map[string]time.Time
}

// stampWriter notes the sequence number of each frame a handler writes
// and stamps it when the handler flushes. Only a frame's first write
// counts: the gateway re-reads member history to back-fill its mirror.
type stampWriter struct {
	http.ResponseWriter
	log     *frameLog
	key     string
	pending []string
}

func (s *stampWriter) Write(p []byte) (int, error) {
	if rest, ok := bytes.CutPrefix(p, []byte("id: ")); ok {
		s.pending = append(s.pending, string(bytes.TrimSpace(rest)))
	}
	return s.ResponseWriter.Write(p)
}

func (s *stampWriter) Flush() {
	s.ResponseWriter.(http.Flusher).Flush()
	now := time.Now()
	s.log.mu.Lock()
	for _, seq := range s.pending {
		if _, ok := s.log.at[s.key+seq]; !ok {
			s.log.at[s.key+seq] = now
		}
	}
	s.log.mu.Unlock()
	s.pending = s.pending[:0]
}

// storeCall is one append a hosted store made.
type storeCall struct {
	kind       string // submit, finish, route
	start, end time.Time
}

// timedStore wraps the durable store the daemon is given as
// Config.Store and times every append.
type timedStore struct {
	store.Store
	tr    *tracer
	mu    sync.Mutex
	calls []storeCall
}

func (s *timedStore) record(kind, job string, start time.Time) {
	end := time.Now()
	s.mu.Lock()
	s.calls = append(s.calls, storeCall{kind: kind, start: start, end: end})
	s.mu.Unlock()
	s.tr.add(span{ID: s.tr.newID("st"), Layer: "store", Name: "store." + kind, Job: job,
		Start: secs(start), End: secs(end)})
}

func (s *timedStore) LogSubmit(rec store.SubmitRecord) error {
	t := time.Now()
	defer s.record("submit", rec.ID, t)
	return s.Store.LogSubmit(rec)
}

func (s *timedStore) LogFinish(rec store.FinishRecord) error {
	t := time.Now()
	defer s.record("finish", rec.ID, t)
	return s.Store.LogFinish(rec)
}

func (s *timedStore) LogRoute(rec store.RouteRecord) error {
	t := time.Now()
	defer s.record("route", rec.ID, t)
	return s.Store.LogRoute(rec)
}

// durations returns the µs durations of appends of one kind that
// started inside [from, to].
func (s *timedStore) durations(kind string, from, to time.Time) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, c := range s.calls {
		if c.kind == kind && !c.start.Before(from) && !c.start.After(to) {
			out = append(out, float64(c.end.Sub(c.start))/1e3)
		}
	}
	return out
}

// node is one hosted daemon: a worker service or the gateway, its
// store and its HTTP server on a loopback port.
type node struct {
	name string
	svc  *service.Service
	gw   *federation.Gateway
	disk *store.Disk
	st   *timedStore
	rt   *routeTimer
	srv  *http.Server
	addr string
	open time.Duration // store.Open on a fresh directory

	stopped bool
}

func (n *node) serve(h http.Handler, tr *tracer, layer string, frames *frameLog) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.addr = ln.Addr().String()
	n.rt = &routeTimer{next: h, tr: tr, layer: layer, member: n.name, frames: frames}
	n.srv = &http.Server{Handler: n.rt}
	go n.srv.Serve(ln)
	return nil
}

// openStore opens a fresh data directory, as assayd -data does.
func (n *node) openStore(dir string, tr *tracer) error {
	t := time.Now()
	disk, err := store.Open(filepath.Join(dir, n.name+"-data"), store.Options{})
	n.open = time.Since(t)
	if err != nil {
		return err
	}
	n.disk, n.st = disk, &timedStore{Store: disk, tr: tr}
	return nil
}

// stop shuts the node down in assayd's order: drain, stop serving,
// close, close the store. Later calls do nothing.
func (n *node) stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	if n.gw != nil {
		n.gw.Drain()
	}
	if n.svc != nil {
		n.svc.Drain()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	if n.gw != nil {
		n.gw.Close()
	}
	if n.svc != nil {
		n.svc.Close()
	}
	if n.disk != nil {
		n.disk.Close()
	}
}

// host is the in-process composition: workers, and a gateway in front
// of them on gateway-scan.
type host struct {
	workers []*node
	gateway *node
	frames  *frameLog
}

func (h *host) nodes() []*node {
	if h.gateway == nil {
		return h.workers
	}
	return append(append([]*node(nil), h.workers...), h.gateway)
}

func (h *host) front() string {
	if h.gateway != nil {
		return h.gateway.addr
	}
	return h.workers[0].addr
}

func (h *host) stop() {
	if h.gateway != nil {
		h.gateway.stop()
	}
	for _, n := range h.workers {
		n.stop()
	}
}

// newHost builds what cmd/assayd builds for the workload: one worker
// with the default shard count, or two single-shard workers behind a
// gateway, each with a fresh data directory and observability on.
func newHost(dir string, w workload, tr *tracer) (*host, error) {
	h := &host{}
	names, shards := []string{"worker"}, 0
	if w.gateway {
		names, shards = []string{"w0", "w1"}, 1
		h.frames = &frameLog{at: make(map[string]time.Time)}
	}
	for _, name := range names {
		n := &node{name: name}
		h.workers = append(h.workers, n)
		if err := n.openStore(dir, tr); err != nil {
			h.stop()
			return nil, err
		}
		svc, err := service.New(service.Config{Shards: shards, QueueDepth: service.DefaultQueueDepth,
			Chip: chipConfig(w.cols), Store: n.st, Obs: obs.NewRegistry()})
		if err != nil {
			h.stop()
			return nil, err
		}
		n.svc = svc
		if err := n.serve(svc.Handler(), tr, "service", h.frames); err != nil {
			h.stop()
			return nil, err
		}
	}
	if !w.gateway {
		return h, nil
	}
	var specs []federation.MemberSpec
	for _, n := range h.workers {
		specs = append(specs, federation.MemberSpec{Name: n.name, Addr: "http://" + n.addr,
			Profiles: []service.FleetProfileSpec{{Name: profileName, Shards: 1, Cols: w.cols, Rows: w.cols}}})
	}
	g := &node{name: "gateway"}
	h.gateway = g
	if err := g.openStore(dir, tr); err != nil {
		h.stop()
		return nil, err
	}
	gw, err := federation.New(federation.Config{Members: specs, Store: g.st, Obs: obs.NewRegistry()})
	if err != nil {
		h.stop()
		return nil, err
	}
	g.gw = gw
	if err := g.serve(gw.Handler(), tr, "federation", nil); err != nil {
		h.stop()
		return nil, err
	}
	return h, waitHealthy(g.addr, true, time.Now().Add(30*time.Second), nil)
}

// storeTotals sums the hosted stores' log sizes and append counts.
func (h *host) storeTotals() (bytes int64, appends int) {
	for _, n := range h.nodes() {
		bytes += n.disk.Stats().Bytes
		n.st.mu.Lock()
		appends += len(n.st.calls)
		n.st.mu.Unlock()
	}
	return bytes, appends
}

// allocSnap is a reading of this process's allocation counters with
// the load generator's own share, estimated from the heap profile,
// split out.
type allocSnap struct {
	bytes, objects, gcs float64
	genBytes, genObjs   float64
}

// generatorFrames are the functions whose allocations belong to the
// load generator rather than to the hosted daemon.
var generatorFrames = []string{"main.(*client).", "main.(*conn).", "main.(*sseReader).", "main.lagProbe", "main.drive"}

func readAlloc() allocSnap {
	runtime.GC()
	runtime.GC() // the heap profile publishes at the end of a cycle
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := allocSnap{bytes: float64(ms.TotalAlloc), objects: float64(ms.Mallocs), gcs: float64(ms.NumGC)}
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		return s
	}
	rate := float64(runtime.MemProfileRate)
	for _, r := range recs[:n] {
		if r.AllocObjects == 0 || !fromGenerator(r.Stack()) {
			continue
		}
		// Undo the profile's sampling, as pprof does.
		scale := 1 / (1 - math.Exp(-float64(r.AllocBytes)/float64(r.AllocObjects)/rate))
		s.genBytes += float64(r.AllocBytes) * scale
		s.genObjs += float64(r.AllocObjects) * scale
	}
	return s
}

func fromGenerator(stk []uintptr) bool {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		for _, p := range generatorFrames {
			if strings.HasPrefix(f.Function, p) {
				return true
			}
		}
		if !more {
			return false
		}
	}
}

// heapAllocBytes reads this process's cumulative allocation counter
// without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// directCalls times the request-path calls the daemon makes on every
// submission — body decode, program checks, cache key — on each
// distinct generated request, outside the measured window. Each value
// is the mean of reps calls, in µs.
func directCalls(cls []*client, cols int) (decode, check, key []float64, err error) {
	cfg := chipConfig(cols)
	raw, err := cache.ConfigJSON(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	mats := []cache.ProfileMaterial{{Name: profileName, Config: raw}}
	const reps = 5
	for _, cl := range cls {
		for _, p := range cl.pairs {
			var req service.SubmitRequest
			t := time.Now()
			for i := 0; i < reps; i++ {
				req = service.SubmitRequest{}
				if err := json.Unmarshal(p.body, &req); err != nil {
					return nil, nil, nil, err
				}
			}
			decode = append(decode, float64(time.Since(t))/1e3/reps)
			t = time.Now()
			for i := 0; i < reps; i++ {
				if err := req.Program.CheckOps(); err != nil {
					return nil, nil, nil, err
				}
				if err := req.Program.EffectiveRequirements().Check(cfg); err != nil {
					return nil, nil, nil, err
				}
				if err := req.Program.Check(cfg); err != nil {
					return nil, nil, nil, err
				}
			}
			check = append(check, float64(time.Since(t))/1e3/reps)
			t = time.Now()
			for i := 0; i < reps; i++ {
				if _, err := cache.KeyOf(req.Program, req.Seed, mats); err != nil {
					return nil, nil, nil, err
				}
			}
			key = append(key, float64(time.Since(t))/1e3/reps)
		}
	}
	return decode, check, key, nil
}

// fetchTraces reads the span tree of every job the window followed
// from the front daemon (stitched across the gateway hop).
func fetchTraces(front string, m measured) (map[string]obs.TraceDoc, error) {
	out := make(map[string]obs.TraceDoc)
	for _, cy := range m.window {
		if cy.id == "" {
			continue
		}
		if _, ok := out[cy.id]; ok {
			continue
		}
		resp, err := httpc.Get("http://" + front + "/v1/assays/" + cy.id + "/trace")
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("trace %s: status %d", cy.id, resp.StatusCode)
		}
		var doc obs.TraceDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("trace %s: %w", cy.id, err)
		}
		out[cy.id] = doc
	}
	return out, nil
}

// daemonSpans turns the served traces into benchmark spans. The job's
// root span hangs off the client cycle that first followed it; spans a
// gateway stitched in from a member are service spans, the gateway's
// own are federation spans.
func daemonSpans(docs map[string]obs.TraceDoc, m measured, gateway bool) []span {
	cycleOf := make(map[string]string)
	for _, cy := range m.window {
		if _, ok := cycleOf[cy.id]; !ok && cy.span != "" {
			cycleOf[cy.id] = cy.span
		}
	}
	var out []span
	for id, doc := range docs {
		for _, s := range doc.Spans {
			if s.End == 0 {
				continue
			}
			layer := "service"
			switch {
			case s.Name == "execute":
				layer = "execute"
			case strings.HasPrefix(s.Name, "cache."):
				layer = "cache"
			case gateway && !strings.Contains(s.ID, "/m:"):
				layer = "federation"
			}
			parent := s.Parent
			if s.Name == "job" && !strings.Contains(s.ID, "/m:") {
				parent = cycleOf[id]
			}
			out = append(out, span{ID: s.ID, Parent: parent, Layer: layer, Name: s.Name, Job: id,
				Start: s.Start, End: s.End})
		}
	}
	return out
}

// adoptStoreSpans parents each store span on the innermost daemon span
// of the same job that contains it.
func adoptStoreSpans(spans []span) {
	byJob := make(map[string][]int)
	for i, s := range spans {
		if s.Layer != "store" && s.Layer != "client" && s.Job != "" {
			byJob[s.Job] = append(byJob[s.Job], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Layer != "store" {
			continue
		}
		best := -1
		for _, j := range byJob[s.Job] {
			p := spans[j]
			if p.Start <= s.Start && p.End >= s.End && (best < 0 || p.dur() < spans[best].dur()) {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
}

// spanDurations returns the ms durations of the named spans.
func spanDurations(spans []span, name, layer string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Layer == layer {
			out = append(out, s.dur()*1e3)
		}
	}
	return out
}

func p50(xs []float64) float64 { v, _ := percentile(xs, 0.5); return v }
func p90(xs []float64) float64 { v, _ := percentile(xs, 0.9); return v }

// runTraced measures the per-layer metrics with the composition hosted
// in this process.
func runTraced(opts runOpts) (result, map[string]any, error) {
	w := opts.w
	runtime.MemProfileRate = 64 << 10
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		return result{}, nil, err
	}
	// The first chip.New of the process pays the cage-field solve;
	// everything after hits dep's memo.
	t := time.Now()
	if _, err := chip.New(chipConfig(w.cols)); err != nil {
		return result{}, nil, err
	}
	calibrate := time.Since(t)

	tr := &tracer{}
	h, err := newHost(opts.dir, w, tr)
	if err != nil {
		return result{}, nil, err
	}
	defer h.stop()
	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = newClient(i, h.front(), w, opts.seed, tr)
	}
	var a0, a1 allocSnap
	var bytes0, bytes1 int64
	var appends0, appends1 int
	m, err := drive(cls, w, opts.dur, func() error {
		a0 = readAlloc()
		bytes0, appends0 = h.storeTotals()
		return nil
	}, func() error {
		bytes1, appends1 = h.storeTotals()
		a1 = readAlloc()
		return nil
	})
	for _, cl := range cls {
		cl.c.close()
	}
	if err != nil {
		return result{}, nil, err
	}
	docs, err := fetchTraces(h.front(), m)
	if err != nil {
		return result{}, nil, err
	}
	h.stop()

	exps, err := replayAll(cls, w.cols, true)
	if err != nil {
		return result{}, nil, err
	}
	o := checkCycles(m, exps)
	decode, checks, keys, err := directCalls(cls, w.cols)
	if err != nil {
		return result{}, nil, err
	}
	chipAlloc, err := replayAllocs(cls, w.cols)
	if err != nil {
		return result{}, nil, err
	}

	jobs := float64(m.completed())
	from, to := m.start, m.end
	mets := map[string]metric{}
	put := func(name string, v float64, unit string) { mets[name] = metric{v, unit} }

	// service: worker handlers (the members, behind a gateway) and the
	// spans the worker serves for the stages under its mutex.
	spans := append(daemonSpans(docs, m, w.gateway), tr.spans...)
	adoptStoreSpans(spans)
	var submitCalls, getCalls, polls []float64
	for _, n := range h.workers {
		submitCalls = append(submitCalls, n.rt.durations("submit", false, from, to)...)
		getCalls = append(getCalls, n.rt.durations("get", false, from, to)...)
		polls = append(polls, n.rt.durations("stats", false, from, to)...)
	}
	queue := spanDurations(spans, "queue", "service")
	put("service.http_submit_ms", p50(submitCalls), "ms")
	put("service.http_get_ms", p50(getCalls), "ms")
	put("service.submit_ms", p50(spanDurations(spans, "submit", "service")), "ms")
	put("service.queue_p50_ms", p50(queue), "ms")
	put("service.queue_p90_ms", p90(queue), "ms")
	put("service.finish_ms", p50(spanDurations(spans, "finish", "service")), "ms")

	// stream and cache: what the client saw.
	// The gateway's forward span names the member and the member-side
	// job ID, which key the members' frame stamps.
	remoteOf := map[string]string{}
	for id, doc := range docs {
		for _, sp := range doc.Spans {
			if sp.Name != "forward" {
				continue
			}
			var member, rid string
			for _, a := range sp.Attrs {
				switch a.K {
				case "member":
					member = a.V
				case "remote_id":
					rid = a.V
				}
			}
			remoteOf[id] = member + "/" + rid + "/"
		}
	}
	var sseBytes, frames, gaps, hits, coalesced, accepted float64
	var lags, relay []float64
	for _, cy := range m.window {
		if cy.status == http.StatusAccepted {
			accepted++
			hits += b2f(cy.cache == "hit")
			coalesced += b2f(cy.cache == "coalesced")
		}
		v := o.verdicts[cy]
		gaps += float64(v.gaps)
		if !v.ok {
			continue
		}
		sseBytes += float64(len(cy.events))
		frames += float64(len(cy.frames))
		if len(v.events) != len(cy.frames) {
			continue
		}
		remote := remoteOf[cy.id]
		for i, ev := range v.events {
			at := cy.frames[i].at
			if ev.Wall >= secs(cy.subAt) {
				lags = append(lags, (secs(at)-ev.Wall)*1e3)
			}
			if remote == "" {
				continue
			}
			if sent, ok := h.frames.at[remote+strconv.FormatUint(ev.Seq, 10)]; ok && !sent.Before(cy.subAt) {
				relay = append(relay, ms(at.Sub(sent)))
			}
		}
	}
	verified := float64(len(o.verified))
	put("service.sse_bytes_per_job", sseBytes/verified, "B")
	put("stream.events_per_job", frames/verified, "count")
	put("stream.lag_p50_ms", p50(lags), "ms")
	put("stream.lag_p90_ms", p90(lags), "ms")
	put("stream.gaps", gaps, "count")
	put("cache.hit_frac", hits/accepted, "ratio")
	put("cache.coalesced_frac", coalesced/accepted, "ratio")
	put("assay.decode_us", median(decode), "us")
	put("assay.check_us", median(checks), "us")
	put("cache.key_us", median(keys), "us")

	// store
	var subs, fins, routes, opens []float64
	for _, n := range h.nodes() {
		subs = append(subs, n.st.durations("submit", from, to)...)
		fins = append(fins, n.st.durations("finish", from, to)...)
		routes = append(routes, n.st.durations("route", from, to)...)
		opens = append(opens, ms(n.open))
	}
	put("store.submit_p50_us", p50(subs), "us")
	put("store.submit_p90_us", p90(subs), "us")
	put("store.finish_p50_us", p50(fins), "us")
	put("store.route_p50_us", p50(routes), "us")
	put("store.bytes_per_job", float64(bytes1-bytes0)/jobs, "B")
	put("store.appends_per_job", float64(appends1-appends0)/jobs, "count")
	put("store.open_ms", median(opens), "ms")

	// chip and route: the replay of each distinct job the window ran.
	byKind := map[string][]float64{}
	var plans []float64
	var planTotal, execTotal float64
	seen := map[[2]int]bool{}
	for _, cy := range o.verified {
		k := [2]int{cy.client, cy.pair}
		if seen[k] {
			continue
		}
		seen[k] = true
		ops := exps[cy.client][cy.pair].ops
		for _, kind := range []string{"load", "settle", "capture", "probe", "scan", "release"} {
			byKind[kind] = append(byKind[kind], ms(ops.byKind[kind]))
		}
		// The routed op's bracket holds planning and ExecutePlan.
		byKind["execute_plan"] = append(byKind["execute_plan"], ms(ops.byKind["gather"]+ops.byKind["move"]-ops.plan))
		plans = append(plans, ms(ops.plan))
		planTotal += ms(ops.plan)
		execTotal += ms(ops.total)
	}
	for _, kind := range []string{"load", "settle", "capture", "probe", "scan", "release", "execute_plan"} {
		put("chip."+kind+"_ms", median(byKind[kind]), "ms")
	}
	put("chip.alloc_kb_per_job", chipAlloc, "KB")
	put("route.plan_ms", median(plans), "ms")
	put("route.plan_frac", planTotal/execTotal, "ratio")

	// federation
	var forward, gwGets []float64
	var pollRate float64
	if h.gateway != nil {
		forward = spanDurations(spans, "forward", "federation")
		gwGets = h.gateway.rt.durations("get", false, from, to)
		pollRate = float64(len(polls)) / m.seconds()
	}
	put("federation.forward_ms", p50(forward), "ms")
	put("federation.relay_lag_ms", p50(relay), "ms")
	put("federation.get_ms", p50(gwGets), "ms")
	put("federation.polls_per_s", pollRate, "1/s")

	put("dep.calibrate_ms", ms(calibrate), "ms")

	// assayd process: this process's allocations minus the generator's.
	total := a1.bytes - a0.bytes
	daemonBytes := total - (a1.genBytes - a0.genBytes)
	put("assayd.alloc_kb_per_job", daemonBytes/1e3/jobs, "KB")
	put("assayd.mallocs_per_job", (a1.objects-a0.objects-(a1.genObjs-a0.genObjs))/jobs, "count")
	// Two of the counted cycles are readAlloc's own.
	put("assayd.gc_per_1k_jobs", (a1.gcs-a0.gcs-2)*daemonBytes/total/jobs*1e3, "count")

	info := m.quality
	own := map[string]any{}
	latencyMetrics(own, m, o)
	info["traced_e2e"] = own
	info["failed_frac"] = float64(o.failed) / float64(o.attempted)
	info["window_jobs"] = len(m.window)
	info["generator_alloc_share"] = (a1.genBytes - a0.genBytes) / total
	self := selfTimes(spans)
	self["chip"] += (execTotal - planTotal) / 1e3
	self["route"] += planTotal / 1e3
	perJob := map[string]float64{}
	for layer, s := range self {
		perJob[layer] = s * 1e3 / jobs
	}
	info["self_ms_per_job"] = perJob
	printSelf(perJob)
	if err := writeSpans(opts, spans); err != nil {
		return result{}, nil, err
	}
	if len(o.reasons) > 0 {
		info["failures"] = o.reasons
	}
	return result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: mets}, info, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// replayAllocs is the heap allocated per chip execution, read around
// serial replays of a sample of the run's jobs.
func replayAllocs(cls []*client, cols int) (float64, error) {
	const sample = 20
	sim, err := chip.New(chipConfig(cols))
	if err != nil {
		return 0, err
	}
	var total uint64
	n := 0
	for _, cl := range cls {
		for _, p := range cl.pairs {
			if n == sample {
				break
			}
			if err := sim.Reset(p.seed); err != nil {
				return 0, err
			}
			var c stream.Collector
			before := heapAllocBytes()
			if _, err := assay.ExecuteOnStream(sim, p.program, c.Sink()); err != nil {
				return 0, err
			}
			total += heapAllocBytes() - before
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return float64(total) / 1e3 / float64(n), nil
}

// printSelf writes the per-layer self-time table to stderr.
func printSelf(perJob map[string]float64) {
	layers := make([]string, 0, len(perJob))
	for l := range perJob {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return perJob[layers[i]] > perJob[layers[j]] })
	fmt.Fprintln(os.Stderr, "self time per job by layer (ms):")
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "  %-12s %10.3f\n", l, perJob[l])
	}
}

// writeSpans keeps the traced run's spans in .bench_build/spans.
func writeSpans(opts runOpts, spans []span) error {
	dir := filepath.Join(opts.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", opts.w.name, opts.seed)), data, 0o644)
}
