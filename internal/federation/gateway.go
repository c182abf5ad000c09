package federation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"biochip/internal/assay"
	"biochip/internal/cache"
	"biochip/internal/obs"
	"biochip/internal/service"
	"biochip/internal/store"
	"biochip/internal/stream"
)

// Defaults for gateway tunables.
const (
	// DefaultPollInterval paces the background member-stats poll that
	// refreshes backlog views.
	DefaultPollInterval = time.Second
	// memberWaitWindow is the long-poll window a job watcher holds on
	// its member; short enough that drain progress and lost-member
	// detection stay responsive.
	memberWaitWindow = 25 * time.Second
	// watchBackoff bounds the retry backoff of watchers and relays when
	// a member is unreachable.
	watchBackoffMin = 250 * time.Millisecond
	watchBackoffMax = 2 * time.Second
)

// ErrNoMembers reports a submission no member could take because none
// was reachable. It unwraps to service.ErrUnavailable, which the HTTP
// API maps to 503 without Retry-After.
var ErrNoMembers error = noMembers{}

type noMembers struct{}

func (noMembers) Error() string { return "federation: no member reachable" }
func (noMembers) Unwrap() error { return service.ErrUnavailable }

// Config configures a Gateway.
type Config struct {
	// Members is the worker fleet (ParseMembersSpec).
	Members []MemberSpec
	// Store durably records job→member bindings; nil means the
	// in-memory default (bindings lost on restart).
	Store store.Store
	// Cache configures the gateway's own result cache.
	Cache service.FleetCacheSpec
	// PollInterval paces backlog polling; 0 selects
	// DefaultPollInterval.
	PollInterval time.Duration
	// Obs enables metrics and span tracing on this gateway; nil (the
	// default) disables both, and the gateway counts into a private
	// registry that backs /v1/stats alone. The registry is the
	// gateway's only counter store, so it must serve one backend: two
	// sharing one would merge their /v1/stats counters.
	Obs *obs.Registry
}

// memberView is the gateway's last-known load picture of one member:
// the per-class backlog from its stats (or from a 429 body, which
// piggybacks the same block), plus the jobs forwarded since — the
// poll-lag correction that keeps a burst from piling onto whichever
// member polled emptiest.
type memberView struct {
	reachable bool
	queued    int
	classes   []service.ClassStats
	pending   int
}

// gwJob is one routed job: the gateway-side record binding a gateway
// ID to the member execution, the latest rewritten snapshot, and the
// lazily started event mirror.
type gwJob struct {
	id        string
	member    *Member
	remoteID  string
	seed      uint64
	prName    string
	key       cache.Key
	recovered bool

	// snap is the latest gateway-view snapshot (ID rewritten); guarded
	// by the gateway mutex.
	snap service.Job
	// done closes when snap turns terminal.
	done chan struct{}

	mirrorOnce sync.Once
	mirror     *stream.Ring

	// Observability (nil/zero with Obs disabled): the gateway-side span
	// ring, its open root span, and the forward reference sent in
	// X-Assay-Trace with the span it names (internal/federation/obs.go).
	trace    *obs.Trace
	spanRoot obs.SpanRef
	fwdRef   string
	fwdSpan  string
}

// Gateway is the federation front: it places submissions on members,
// records the bindings, watches routed jobs to termination and serves
// the member results under gateway job IDs.
type Gateway struct {
	members []*Member
	store   store.Store
	durable bool
	poll    time.Duration

	mu       sync.Mutex
	cond     *sync.Cond
	views    []memberView
	jobs     map[string]*gwJob
	remote   map[string]string // memberName \x00 remoteID → gateway ID
	seq      uint64
	lru      *cache.LRU
	inflight map[cache.Key]*gwJob
	draining bool
	closed   bool

	drained     chan struct{}
	drainedOnce sync.Once
	ctx         context.Context
	cancel      context.CancelFunc
	wg          sync.WaitGroup

	// Observability: obs is the served registry (nil: no /v1/metrics),
	// met holds every Stats counter. fwdSeq mints the forward
	// references sent in X-Assay-Trace; started anchors health uptime.
	obs     *obs.Registry
	met     gwMetrics
	tracing bool
	fwdSeq  uint64 // guarded by mu
	started obs.Stamp
}

// New builds a gateway over the given members, replays the store to
// re-resolve previously routed jobs, and starts the backlog poller.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("federation: no members")
	}
	st := cfg.Store
	if st == nil {
		st = store.Null{}
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g := &Gateway{
		store:    st,
		durable:  st.Durable(),
		poll:     cfg.PollInterval,
		jobs:     make(map[string]*gwJob),
		remote:   make(map[string]string),
		inflight: make(map[cache.Key]*gwJob),
		drained:  make(chan struct{}),
		obs:      cfg.Obs,
		met:      newGwMetrics(reg),
		tracing:  cfg.Obs != nil,
		started:  obs.Now(),
	}
	if g.poll <= 0 {
		g.poll = DefaultPollInterval
	}
	g.cond = sync.NewCond(&g.mu)
	if !cfg.Cache.Disable {
		g.lru = cache.NewLRU(cfg.Cache.Entries)
	}
	for _, spec := range cfg.Members {
		m, err := NewMember(spec)
		if err != nil {
			return nil, err
		}
		g.members = append(g.members, m)
		g.views = append(g.views, memberView{reachable: true})
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	if err := g.recover(); err != nil {
		g.cancel()
		return nil, err
	}
	g.wg.Add(1)
	go g.pollLoop()
	return g, nil
}

// recover replays the store's route records: each becomes a routed job
// again, watched to (re-)termination against its member, with the
// content address recomputed so deduplication spans the restart.
func (g *Gateway) recover() error {
	err := g.store.Replay(func(rec *store.Record) error {
		if rec.Kind != store.KindRoute || rec.Route == nil {
			return nil
		}
		r := rec.Route
		m := g.memberByName(r.Member)
		var n uint64
		if _, err := fmt.Sscanf(r.ID, "a-%d", &n); err == nil && n > g.seq {
			g.seq = n
		}
		j := &gwJob{
			id:        r.ID,
			member:    m,
			remoteID:  r.RemoteID,
			seed:      r.Seed,
			recovered: true,
			done:      make(chan struct{}),
			snap: service.Job{
				ID: r.ID, Status: service.StatusQueued, Seed: r.Seed,
				Assigned: -1, Shard: -1, Recovered: true,
			},
		}
		if m != nil {
			j.snap.Member = m.Name
		}
		if len(r.Program) > 0 {
			var pr assay.Program
			if jsonErr := json.Unmarshal(r.Program, &pr); jsonErr == nil {
				j.prName = pr.Name
				j.snap.Program = pr.Name
				if key, keyErr := g.keyOf(pr, r.Seed); keyErr == nil {
					j.key = key
				}
			}
		}
		g.jobs[r.ID] = j
		if _, dup := g.remote[routeKey(r.Member, r.RemoteID)]; !dup {
			g.remote[routeKey(r.Member, r.RemoteID)] = r.ID
		}
		if !j.key.Zero() {
			if _, dup := g.inflight[j.key]; !dup {
				g.inflight[j.key] = j
			}
		}
		g.met.recovered.Inc()
		return nil
	})
	if err != nil {
		return fmt.Errorf("federation: replaying route log: %w", err)
	}
	for _, j := range g.jobs {
		if j.member == nil {
			// The member disappeared from members.json across the
			// restart; the job's result is unreachable.
			j.snap.Status = service.StatusFailed
			j.snap.Error = fmt.Sprintf("federation: member of routed job removed from members spec")
			g.met.failed.Inc()
			close(j.done)
			continue
		}
		g.wg.Add(1)
		go g.watch(j)
	}
	return nil
}

func (g *Gateway) memberByName(name string) *Member {
	for _, m := range g.members {
		if m.Name == name {
			return m
		}
	}
	return nil
}

func routeKey(member, remoteID string) string { return member + "\x00" + remoteID }

// keyOf content-addresses a submission against the fleet-wide eligible
// profile set: every distinct (name, config) pair across members, in
// members order. Determinism makes this sound — any member's execution
// of the job yields bit-identical results — and binding the whole
// eligible set keeps the key stable across placement choices. The zero
// key (not cacheable) is returned when the gateway cache is off or any
// eligible profile opts out.
func (g *Gateway) keyOf(pr assay.Program, seed uint64) (cache.Key, error) {
	if g.lru == nil {
		return cache.Key{}, nil
	}
	var mats []cache.ProfileMaterial
	seen := make(map[string]bool)
	for _, m := range g.members {
		eligible, _ := m.Eligible(pr)
		for _, p := range eligible {
			if p.NoCache {
				return cache.Key{}, nil
			}
			mat := m.matOf(p.Name)
			id := mat.Name + "\x00" + string(mat.Config)
			if seen[id] {
				continue
			}
			seen[id] = true
			mats = append(mats, mat)
		}
	}
	if len(mats) == 0 {
		return cache.Key{}, nil
	}
	return cache.KeyOf(pr, seed, mats)
}

// matOf returns the cache key material of the named profile.
func (m *Member) matOf(name string) cache.ProfileMaterial {
	for i, p := range m.Profiles {
		if p.Name == name {
			return m.mats[i]
		}
	}
	return cache.ProfileMaterial{}
}

// fwdTrace carries the telemetry stamps of one submission through the
// forwarding path until bind can attach them to the minted job.
type fwdTrace struct {
	ref             string // X-Assay-Trace value sent to the member
	parent          string // foreign parent from our own caller
	subAt, placeEnd obs.Stamp
	fwdAt           obs.Stamp
}

// Submit places one submission: gateway cache first (an identical
// finished or in-flight routed job answers without a forward), then the
// reachable members with a compatible profile in ascending backlog
// order. The job→member binding is logged through the store before the
// submission is acked, exactly as a worker WALs its own admissions.
// Error contract as service.Submit, with ErrNoMembers when every
// candidate was unreachable. req.Trace is the X-Assay-Trace value of
// whoever forwarded to this gateway, recorded as the root span's parent
// ("" for a direct submission).
func (g *Gateway) Submit(req service.SubmitRequest) (service.SubmitResult, error) {
	pr, seed := req.Program, req.Seed
	if err := pr.CheckOps(); err != nil {
		return service.SubmitResult{}, err
	}
	var subAt obs.Stamp
	if g.tracing {
		subAt = obs.Now()
	}
	type candidate struct {
		idx      int
		member   *Member
		eligible []string
	}
	var cands []candidate
	reasons := make(map[string]string)
	for i, m := range g.members {
		eligible, why := m.Eligible(pr)
		if len(eligible) == 0 {
			for name, r := range why {
				reasons[m.Name+"/"+name] = r
			}
			continue
		}
		names := make([]string, 0, len(eligible))
		for _, p := range eligible {
			names = append(names, p.Name)
		}
		cands = append(cands, candidate{idx: i, member: m, eligible: names})
	}
	if len(cands) == 0 {
		return service.SubmitResult{}, &service.IncompatibleError{
			Program: pr.Name, Requirements: pr.EffectiveRequirements(), Reasons: reasons}
	}
	key, err := g.keyOf(pr, seed)
	if err != nil {
		return service.SubmitResult{}, err
	}
	var wal json.RawMessage
	if g.durable {
		raw, err := json.Marshal(pr)
		if err != nil {
			return service.SubmitResult{}, fmt.Errorf("%w: encoding program: %v", service.ErrPersist, err)
		}
		wal = raw
	}

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return service.SubmitResult{}, service.ErrClosed
	}
	if g.draining {
		g.mu.Unlock()
		return service.SubmitResult{}, service.ErrDraining
	}
	if res, ok := g.cachedLocked(key); ok {
		g.mu.Unlock()
		return res, nil
	}
	if !key.Zero() {
		g.met.miss.Inc()
	}
	// Mint the forward reference under the lock so references are
	// sequential in submission order, like job IDs.
	ref := ""
	if g.tracing {
		g.fwdSeq++
		ref = fmt.Sprintf("f-%06d", g.fwdSeq)
	}
	// Snapshot backlog scores under the lock, then forward outside it:
	// a slow member must not stall unrelated submissions.
	scores := make(map[int]int, len(cands))
	for _, c := range cands {
		scores[c.idx] = g.views[c.idx].score(c.eligible)
	}
	g.mu.Unlock()

	sort.SliceStable(cands, func(a, b int) bool {
		return scores[cands[a].idx] < scores[cands[b].idx]
	})
	var placeEnd obs.Stamp
	if g.tracing {
		placeEnd = obs.Now()
	}

	var fulls []*service.QueueFullError
	var lastErr error
	for _, c := range cands {
		var fwdAt obs.Stamp
		if g.tracing {
			fwdAt = obs.Now()
		}
		res, err := c.member.Submit(service.SubmitRequest{Seed: seed, Program: pr, Trace: ref})
		if g.tracing {
			g.met.forward.With(c.member.Name).Observe(obs.Since(fwdAt))
		}
		if err == nil {
			var ft *fwdTrace
			if g.tracing {
				ft = &fwdTrace{ref: ref, parent: req.Trace,
					subAt: subAt, placeEnd: placeEnd, fwdAt: fwdAt}
			}
			return g.bind(c.idx, c.member, pr, seed, key, wal, res, ft)
		}
		lastErr = err
		var full *service.QueueFullError
		switch {
		case errors.As(err, &full):
			fulls = append(fulls, full)
			g.noteBacklog(c.idx, full)
		case errors.Is(err, ErrUnreachable):
			g.noteUnreachable(c.idx)
		}
		// Draining, incompatible and persist-refusing members simply
		// fall through to the next candidate.
	}
	if len(fulls) == len(cands) {
		return service.SubmitResult{}, mergeQueueFull(fulls)
	}
	if errors.Is(lastErr, ErrUnreachable) {
		return service.SubmitResult{}, fmt.Errorf("%w: %v", ErrNoMembers, lastErr)
	}
	return service.SubmitResult{}, lastErr
}

// cachedLocked answers a submission from the gateway cache: an
// identical in-flight routed job coalesces onto it, an identical
// finished one is a hit. Both return the root job's ID
// (202-with-existing-id); the gateway mints no alias jobs. Caller
// holds g.mu.
func (g *Gateway) cachedLocked(key cache.Key) (service.SubmitResult, bool) {
	if key.Zero() {
		return service.SubmitResult{}, false
	}
	if root, ok := g.inflight[key]; ok {
		g.met.coalesced.Inc()
		return service.SubmitResult{
			ID: root.id, Eligible: root.snap.Eligible, Cache: "coalesced"}, true
	}
	if g.lru == nil {
		return service.SubmitResult{}, false
	}
	if e, ok := g.lru.Get(key); ok {
		if root, live := g.jobs[e.ID]; live {
			g.met.hit.Inc()
			return service.SubmitResult{
				ID: root.id, Eligible: root.snap.Eligible, Cache: "hit", DedupOf: root.id}, true
		}
		g.lru.Remove(key)
	}
	return service.SubmitResult{}, false
}

// bind records an accepted forward under a fresh gateway ID: the route
// record is appended (and fsynced, on a durable store) before the
// submission is acked, under the gateway lock so log order matches ID
// order. A submission whose identical twin won the forwarding race
// coalesces onto the twin instead of double-binding.
func (g *Gateway) bind(idx int, m *Member, pr assay.Program, seed uint64, key cache.Key, wal json.RawMessage, res service.SubmitResult, ft *fwdTrace) (service.SubmitResult, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if dup, ok := g.cachedLocked(key); ok {
		// The twin gateway job owns the result; the forward this
		// submission already made is absorbed by the member's own
		// dedup (same content, same cache).
		return dup, nil
	}
	g.seq++
	id := fmt.Sprintf("a-%06d", g.seq)
	if err := g.store.LogRoute(store.RouteRecord{
		ID: id, Member: m.Name, RemoteID: res.ID, Seed: seed, Program: wal,
	}); err != nil {
		g.seq--
		g.met.persistErrors.Inc()
		return service.SubmitResult{}, fmt.Errorf("%w: %v", service.ErrPersist, err)
	}
	j := &gwJob{
		id:       id,
		member:   m,
		remoteID: res.ID,
		seed:     seed,
		prName:   pr.Name,
		key:      key,
		done:     make(chan struct{}),
		snap: service.Job{
			ID: id, Status: service.StatusQueued, Program: pr.Name, Seed: seed,
			Eligible: res.Eligible, Assigned: -1, Shard: -1, Member: m.Name,
		},
	}
	if ft != nil {
		// Root and place are recorded retroactively from the stamps the
		// forwarding path carried — the job ID they hang off was only
		// just minted. The forward span closes now: its round trip ended
		// when the member acked.
		j.trace = obs.NewTrace(id, ft.parent)
		j.spanRoot = j.trace.Add("job", ft.parent, ft.subAt, 0,
			obs.Attr{K: "program", V: pr.Name})
		j.trace.Add("place", j.spanRoot.ID(), ft.subAt, ft.placeEnd)
		fwd := j.trace.Add("forward", j.spanRoot.ID(), ft.fwdAt, obs.Now(),
			obs.Attr{K: "member", V: m.Name},
			obs.Attr{K: "remote_id", V: res.ID},
			obs.Attr{K: "ref", V: ft.ref})
		j.fwdRef = ft.ref
		j.fwdSpan = fwd.ID()
	}
	g.jobs[id] = j
	if _, dup := g.remote[routeKey(m.Name, res.ID)]; !dup {
		g.remote[routeKey(m.Name, res.ID)] = id
	}
	if !key.Zero() {
		g.inflight[key] = j
	}
	g.views[idx].pending++
	g.met.forwarded.Inc()
	g.wg.Add(1)
	go g.watch(j)

	out := service.SubmitResult{ID: id, Eligible: res.Eligible, Cache: res.Cache}
	// A member-side hit names the member's root job; surface it as the
	// gateway job that routed that root, when this gateway did.
	if res.DedupOf != "" {
		out.DedupOf = g.remote[routeKey(m.Name, res.DedupOf)]
	}
	return out, nil
}

// score is the placement cost of routing one more job with the given
// eligible profiles to this member: the backlog already queued on the
// classes those profiles drain, plus forwards not yet visible in the
// polled stats. An unreachable member prices itself out rather than
// off — submission still tries it last, since the view may be stale.
func (v *memberView) score(eligible []string) int {
	s := v.pending
	matched := false
	for _, cls := range v.classes {
		for _, p := range cls.Profiles {
			if containsStr(eligible, p) {
				s += cls.Queued
				matched = true
				break
			}
		}
	}
	if !matched {
		s += v.queued
	}
	if !v.reachable {
		s += 1 << 20
	}
	return s
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// noteBacklog folds the backlog block a 429 piggybacks into the
// member's view — fresher than the last poll by construction.
func (g *Gateway) noteBacklog(idx int, full *service.QueueFullError) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v := &g.views[idx]
	v.reachable = true
	v.queued = full.Queued
	if len(full.Classes) > 0 {
		v.classes = full.Classes
	}
	v.pending = 0
	g.met.memberUp.With(g.members[idx].Name).Set(1)
}

func (g *Gateway) noteUnreachable(idx int) {
	g.mu.Lock()
	g.views[idx].reachable = false
	g.met.memberUp.With(g.members[idx].Name).Set(0)
	g.mu.Unlock()
}

// mergeQueueFull folds every member's 429 into one fleet-wide
// QueueFullError: summed fill and depth, classes concatenated in
// member order.
func mergeQueueFull(fulls []*service.QueueFullError) *service.QueueFullError {
	out := &service.QueueFullError{}
	for _, f := range fulls {
		out.Queued += f.Queued
		out.Depth += f.Depth
		out.Classes = append(out.Classes, f.Classes...)
	}
	return out
}

// pollLoop refreshes every member's backlog view on a fixed cadence.
func (g *Gateway) pollLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.poll)
	defer t.Stop()
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-t.C:
		}
		for i, m := range g.members {
			st, err := m.Stats()
			g.mu.Lock()
			v := &g.views[i]
			if err != nil {
				v.reachable = false
				g.met.memberUp.With(m.Name).Set(0)
			} else {
				v.reachable = true
				v.queued = st.Queued
				v.classes = st.Classes
				v.pending = 0
				g.met.memberUp.With(m.Name).Set(1)
			}
			g.mu.Unlock()
		}
	}
}

// watch follows one routed job on its member until it terminates,
// long-polling with backoff across member restarts. A member that no
// longer knows the job — a non-durable worker restarted — fails the
// job gateway-side; a durable worker re-executes it deterministically
// and the watcher simply picks the result up.
func (g *Gateway) watch(j *gwJob) {
	defer g.wg.Done()
	backoff := watchBackoffMin
	for {
		if g.ctx.Err() != nil {
			return
		}
		rj, err := j.member.WaitTimeout(j.remoteID, memberWaitWindow)
		switch {
		case errors.Is(err, ErrUnknownJob):
			g.finish(j, service.Job{
				ID: j.remoteID, Status: service.StatusFailed,
				Error: "federation: job lost by member restart (member runs without -data)",
			})
			return
		case err != nil:
			if !g.sleep(backoff) {
				return
			}
			backoff *= 2
			if backoff > watchBackoffMax {
				backoff = watchBackoffMax
			}
			continue
		}
		backoff = watchBackoffMin
		terminal := rj.Status == service.StatusDone || rj.Status == service.StatusFailed
		if terminal {
			g.finish(j, rj)
			return
		}
		g.mu.Lock()
		j.snap = g.rewriteLocked(j, rj)
		g.mu.Unlock()
	}
}

// finish records a routed job's terminal snapshot: counters, cache
// insertion for successful cacheable roots, singleflight cleanup, and
// the completion broadcast drains and long-polls wait on.
func (g *Gateway) finish(j *gwJob, rj service.Job) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j.snap = g.rewriteLocked(j, rj)
	j.spanRoot.End()
	if j.snap.Status == service.StatusDone {
		g.met.done.Inc()
		if !j.key.Zero() && g.lru != nil {
			g.lru.Add(j.key, cache.Entry{ID: j.id, Bytes: 64 + int64(len(j.snap.Report))})
		}
	} else {
		g.met.failed.Inc()
	}
	if !j.key.Zero() && g.inflight[j.key] == j {
		delete(g.inflight, j.key)
	}
	close(j.done)
	g.cond.Broadcast()
}

// rewriteLocked maps a member-side snapshot into the gateway's
// namespace: the gateway job ID replaces the remote one, the member
// name is stamped on, and a member-side dedup root is translated when
// this gateway routed it (otherwise the provenance flag survives
// without the foreign ID). Caller holds g.mu.
func (g *Gateway) rewriteLocked(j *gwJob, rj service.Job) service.Job {
	rj.ID = j.id
	rj.Member = j.member.Name
	rj.Recovered = rj.Recovered || j.recovered
	if rj.DedupOf != "" {
		rj.DedupOf = g.remote[routeKey(j.member.Name, rj.DedupOf)]
	}
	if rj.Program == "" {
		rj.Program = j.prName
	}
	return rj
}

// sleep waits d or until the gateway closes, reporting whether the
// full wait elapsed.
func (g *Gateway) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-g.ctx.Done():
		return false
	}
}

// Get snapshots a gateway job. Non-terminal jobs are refreshed from
// the member when reachable, so status tracks the member view between
// watcher updates; the last snapshot serves when the member is not.
func (g *Gateway) Get(id string) (service.Job, bool) {
	g.mu.Lock()
	j, ok := g.jobs[id]
	if !ok {
		g.mu.Unlock()
		return service.Job{}, false
	}
	snap := j.snap
	g.mu.Unlock()
	if snap.Status == service.StatusDone || snap.Status == service.StatusFailed {
		return snap, true
	}
	rj, err := j.member.Job(j.remoteID)
	if err != nil {
		return snap, true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if j.snap.Status == service.StatusDone || j.snap.Status == service.StatusFailed {
		// The watcher finished the job while we fetched; its terminal
		// snapshot wins.
		return j.snap, true
	}
	j.snap = g.rewriteLocked(j, rj)
	return j.snap, true
}

// WaitTimeout blocks until the job is terminal or the timeout elapses,
// returning the latest snapshot; timeout <= 0 returns it at once, as
// service.WaitTimeout does.
func (g *Gateway) WaitTimeout(id string, timeout time.Duration) (service.Job, bool, error) {
	g.mu.Lock()
	j, ok := g.jobs[id]
	g.mu.Unlock()
	if !ok {
		return service.Job{}, false, fmt.Errorf("federation: wait: unknown job %q", id)
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-j.done:
	case <-t.C:
	}
	snap, _ := g.Get(id)
	terminal := snap.Status == service.StatusDone || snap.Status == service.StatusFailed
	return snap, terminal, nil
}

// Draining reports whether Drain began.
func (g *Gateway) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Drained exposes the drain-completion channel the SSE handler's
// shutdown event keys off.
func (g *Gateway) Drained() <-chan struct{} { return g.drained }

// Drain stops admitting submissions and blocks until every routed job
// is terminal. Jobs keep executing on their members; the gateway only
// waits to have relayed every outcome it acked.
func (g *Gateway) Drain() {
	g.mu.Lock()
	g.draining = true
	for g.pendingLocked() > 0 {
		g.cond.Wait()
	}
	g.drainedOnce.Do(func() { close(g.drained) })
	g.mu.Unlock()
}

// pendingLocked counts non-terminal jobs. Caller holds g.mu.
func (g *Gateway) pendingLocked() int {
	n := 0
	for _, j := range g.jobs {
		if j.snap.Status != service.StatusDone && j.snap.Status != service.StatusFailed {
			n++
		}
	}
	return n
}

// Close releases the gateway: watchers, relays and the poller stop,
// and idle member connections close. It does not drain — call Drain
// first for a clean shutdown — and does not close the store (the
// caller owns it).
func (g *Gateway) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.cancel()
	g.wg.Wait()
	for _, m := range g.members {
		m.client.CloseIdleConnections()
	}
}
