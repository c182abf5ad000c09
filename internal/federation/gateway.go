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
	// relayBackoffMin and relayBackoffMax bound the retry backoff of a
	// relay whose member is unreachable.
	relayBackoffMin = 250 * time.Millisecond
	relayBackoffMax = 2 * time.Second
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
	// Store is the gateway's log of route and finish records, replayed
	// by New; nil opens a private one (store.OpenTemp) that Close
	// removes. The gateway owns either.
	Store store.Store
	// Cache configures the gateway's own result cache.
	Cache service.FleetCacheSpec
	// PollInterval paces backlog polling; 0 selects
	// DefaultPollInterval.
	PollInterval time.Duration
	// Obs is the registry served at /v1/metrics; setting it also
	// records a span trace per routed job. Nil (the default) serves
	// neither, and the gateway records the same metrics into a private
	// registry that backs /v1/stats alone. The registry is the gateway's
	// only counter store, so it must serve one backend: two sharing one
	// would merge their /v1/stats counters.
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
// ID to the member execution, the job's record, and its event mirror.
// routeLocked builds every one and finishLocked ends it.
type gwJob struct {
	// id is snap.ID, kept apart because the relay's rewrite reads it
	// without the gateway lock while finishLocked writes snap under it.
	id       string
	member   *Member
	remoteID string
	key      cache.Key

	// snap is the job's record as the gateway serves it: what the
	// gateway knows at routing (program, seed, eligible set, member,
	// recovered), then the relay's latest view, then the member's
	// terminal record rewritten into the gateway namespace. Guarded by
	// the gateway mutex; only the job's relay and finishLocked write it.
	snap service.Job
	// done closes when snap turns terminal (finishLocked).
	done chan struct{}
	// mirror is the job's event stream as the gateway serves it, built
	// with the job and fed by its relay, then offloaded to the log once
	// the job's finish record is appended (endMirror); a job restored
	// from its finish record gets an offloaded one (restoreLocked).
	mirror *stream.Ring

	// Observability (nil/zero with Obs disabled): the gateway-side span
	// ring, its open root span, and the forward reference sent in
	// X-Assay-Trace with the span it names (internal/federation/obs.go).
	trace    *obs.Trace
	spanRoot obs.SpanRef
	fwdRef   string
	fwdSpan  string
}

// Gateway is the federation front: it places submissions on members,
// records the bindings, follows each routed job to termination with
// one relay and serves the member results under gateway job IDs.
type Gateway struct {
	members []*Member
	store   store.Store // Config.Store, or New's private log
	poll    time.Duration

	mu       sync.Mutex
	cond     *sync.Cond
	views    []memberView
	jobs     map[string]*gwJob
	remote   map[string]string // memberName \x00 remoteID → gateway ID
	seq      int
	byKey    map[cache.Key]*gwJob // result-cache index (cachedLocked); nil when off
	draining bool
	closed   bool
	// live counts routed jobs not yet terminal: routeLocked raises it
	// and finishLocked lowers it, and Drain waits for zero.
	live int

	drained     chan struct{}
	drainedOnce sync.Once
	ctx         context.Context
	cancel      context.CancelFunc
	wg          sync.WaitGroup

	// Observability: obs is the served registry (nil: no /v1/metrics
	// and no traces), met holds every Stats counter. fwdSeq mints the
	// forward references sent in X-Assay-Trace; started anchors uptime.
	obs     *obs.Registry
	met     gwMetrics
	fwdSeq  uint64 // guarded by mu
	started obs.Stamp
}

// New builds a gateway over the given members, replays the store to
// re-resolve previously routed jobs, and starts the backlog poller.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("federation: no members")
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g := &Gateway{
		poll:    cfg.PollInterval,
		jobs:    make(map[string]*gwJob),
		remote:  make(map[string]string),
		drained: make(chan struct{}),
		obs:     cfg.Obs,
		met:     newGwMetrics(reg),
		started: obs.Now(),
	}
	if g.poll <= 0 {
		g.poll = DefaultPollInterval
	}
	g.cond = sync.NewCond(&g.mu)
	if !cfg.Cache.Disable {
		g.byKey = make(map[cache.Key]*gwJob)
	}
	for _, spec := range cfg.Members {
		m, err := NewMember(spec)
		if err != nil {
			return nil, err
		}
		g.members = append(g.members, m)
		g.views = append(g.views, memberView{reachable: true})
	}
	g.store = cfg.Store
	if cfg.Store == nil {
		disk, err := store.OpenTemp()
		if err != nil {
			return nil, fmt.Errorf("federation: %w", err)
		}
		g.store = disk
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	if err := g.recover(); err != nil {
		g.cancel()
		if cfg.Store == nil {
			g.store.Close()
		}
		return nil, err
	}
	g.wg.Add(1)
	go g.pollLoop()
	return g, nil
}

// recover replays the gateway's log in order. Each route record
// becomes a routed job again, with the content address recomputed so
// deduplication spans the restart, and each finish record — always
// after its job's route record — ends that job at once, as the gateway
// served it (restoreLocked): the log is the job, so no member is
// called for it, even one that left the members spec. Only a routed
// job without a finish record resumes its relay, following it to
// (re-)termination on its member, or fails when its member left. A
// private log is empty, so there is nothing to replay.
func (g *Gateway) recover() error {
	// left names the member of each routed job whose member left the
	// members spec, which its snapshot does not carry (routeLocked).
	left := make(map[string]string)
	err := g.store.Replay(func(rec *store.Record) error {
		switch {
		case rec.Kind == store.KindFinish && rec.Finish != nil:
			return g.restoreLocked(rec.Finish, left[rec.Finish.ID])
		case rec.Kind != store.KindRoute || rec.Route == nil:
			return nil
		}
		r := rec.Route
		if n, ok := service.ParseJobID(r.ID); ok && n > g.seq {
			g.seq = n
		}
		snap := service.Job{Recovered: true}
		var key cache.Key
		var pr assay.Program
		if len(r.Program) > 0 && json.Unmarshal(r.Program, &pr) == nil {
			snap.Program = pr.Name
			eligible := make([][]int, len(g.members))
			for i, m := range g.members {
				eligible[i], _ = m.Eligible(pr)
			}
			// A key keyOf cannot compute comes back zero: not cached.
			key, _ = g.keyOf(pr, r.Seed, eligible)
		}
		m := g.memberByName(r.Member)
		if m == nil {
			left[r.ID] = r.Member
		}
		g.routeLocked(*r, m, key, snap)
		g.met.recovered.Inc()
		return nil
	})
	if err != nil {
		return fmt.Errorf("federation: replaying log: %w", err)
	}
	for _, j := range g.jobs {
		select {
		case <-j.done:
			continue // restored from its finish record
		default:
		}
		if j.member == nil {
			// The member disappeared from members.json across the
			// restart; the job's result is unreachable.
			g.fail(j, "federation: member of routed job removed from members spec")
			continue
		}
		g.wg.Add(1)
		go g.relay(j)
	}
	return nil
}

// restoreLocked ends the routed job a finish record names, at once, as
// the gateway served it before the restart: ID, seed and program name
// from its route record, its member from there too (member names it
// when the member left the spec), status, profile, eligible set, error
// and report from fin, and recovered, with assigned and shard -1 and
// no steal or cache provenance, as a restored worker job reads. Its
// mirror serves the stream from the log. Caller is recover.
func (g *Gateway) restoreLocked(fin *store.FinishRecord, member string) error {
	j := g.jobs[fin.ID]
	if j == nil {
		return fmt.Errorf("finish record %q without route record", fin.ID)
	}
	select {
	case <-j.done:
		return fmt.Errorf("duplicate finish record %q", fin.ID)
	default:
	}
	status := service.Status(fin.Status)
	if status != service.StatusDone && status != service.StatusFailed {
		return fmt.Errorf("job %s: finish record with status %q", fin.ID, fin.Status)
	}
	snap := j.snap
	snap.Status, snap.Profile, snap.Eligible = status, fin.Profile, fin.Eligible
	snap.Error, snap.Report = fin.Error, fin.Report
	if j.member == nil {
		snap.Member = member
	}
	j.mirror = stream.RecoveredRing(uint64(len(fin.Events)), service.LogBackfill(g.store, j.id))
	g.finishLocked(j, snap)
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
// profile set, where eligible[i] is member i's Member.Eligible: every
// distinct (name, config) pair across members, in members order.
// Determinism makes this sound — any member's execution of the job
// yields bit-identical results — and binding the whole eligible set
// keeps the key stable across placement choices. The zero key (not
// cacheable) is returned when the gateway cache is off or any eligible
// profile opts out.
func (g *Gateway) keyOf(pr assay.Program, seed uint64, eligible [][]int) (cache.Key, error) {
	if g.byKey == nil {
		return cache.Key{}, nil
	}
	var mats []cache.ProfileMaterial
	seen := make(map[string]bool)
	for i, m := range g.members {
		for _, p := range eligible[i] {
			if m.Profiles[p].NoCache {
				return cache.Key{}, nil
			}
			mat := m.mats[p]
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
	subAt := obs.Now()
	type candidate struct {
		idx      int
		member   *Member
		eligible []string
	}
	var cands []candidate
	eligible := make([][]int, len(g.members))
	reasons := make(map[string]string)
	for i, m := range g.members {
		var why map[string]string
		eligible[i], why = m.Eligible(pr)
		if len(eligible[i]) == 0 {
			for name, r := range why {
				reasons[m.Name+"/"+name] = r
			}
			continue
		}
		names := make([]string, 0, len(eligible[i]))
		for _, p := range eligible[i] {
			names = append(names, m.Profiles[p].Name)
		}
		cands = append(cands, candidate{idx: i, member: m, eligible: names})
	}
	if len(cands) == 0 {
		return service.SubmitResult{}, &service.IncompatibleError{
			Program: pr.Name, Requirements: pr.EffectiveRequirements(), Reasons: reasons}
	}
	key, err := g.keyOf(pr, seed, eligible)
	if err != nil {
		return service.SubmitResult{}, err
	}
	wal, err := json.Marshal(pr)
	if err != nil {
		return service.SubmitResult{}, fmt.Errorf("%w: encoding program: %v", service.ErrPersist, err)
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
	// sequential in submission order, like job IDs. Only a gateway that
	// records traces sends one, so a member's trace names a parent
	// exactly when the gateway can stitch it.
	ref := ""
	if g.obs != nil {
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
	placeEnd := obs.Now()

	var fulls []*service.QueueFullError
	var lastErr error
	for _, c := range cands {
		fwdAt := obs.Now()
		res, err := c.member.Submit(g.ctx, service.SubmitRequest{Seed: seed, Program: pr, Trace: ref})
		g.met.forward.With(c.member.Name).Observe(obs.Since(fwdAt))
		if err == nil {
			ft := fwdTrace{ref: ref, parent: req.Trace, subAt: subAt, placeEnd: placeEnd, fwdAt: fwdAt}
			return g.bind(c.idx, c.member, pr, seed, key, wal, res, ft)
		}
		// A member's refusal reads as its own message; name the member.
		lastErr = fmt.Errorf("member %s: %w", c.member.Name, err)
		var full *service.QueueFullError
		switch {
		case errors.As(err, &full):
			fulls = append(fulls, full)
			g.noteBacklog(c.idx, full)
		case errors.Is(err, service.ErrUnreachable):
			g.noteUnreachable(c.idx)
		}
		// Draining, incompatible and persist-refusing members simply
		// fall through to the next candidate.
	}
	if len(fulls) == len(cands) {
		return service.SubmitResult{}, mergeQueueFull(fulls)
	}
	if errors.Is(lastErr, service.ErrUnreachable) {
		return service.SubmitResult{}, fmt.Errorf("%w: %v", ErrNoMembers, lastErr)
	}
	return service.SubmitResult{}, lastErr
}

// cachedLocked answers a submission from the gateway cache: an
// identical queued or running routed job coalesces onto it, an
// identical finished one is a hit. Both return the root job's ID
// (202-with-existing-id); the gateway mints no alias jobs. The zero
// key is never indexed. Caller holds g.mu.
func (g *Gateway) cachedLocked(key cache.Key) (service.SubmitResult, bool) {
	root := g.byKey[key]
	if root == nil {
		return service.SubmitResult{}, false
	}
	if root.snap.Status == service.StatusDone {
		g.met.hit.Inc()
		return service.SubmitResult{
			ID: root.id, Eligible: root.snap.Eligible, Cache: "hit", DedupOf: root.id}, true
	}
	g.met.coalesced.Inc()
	return service.SubmitResult{
		ID: root.id, Eligible: root.snap.Eligible, Cache: "coalesced"}, true
}

// bind records an accepted forward under a fresh gateway ID: the route
// record is appended (and fsynced, on a data directory's log) before
// the submission is acked, under the gateway lock so log order matches
// ID order. A submission whose identical twin won the forwarding race
// coalesces onto the twin instead of double-binding.
func (g *Gateway) bind(idx int, m *Member, pr assay.Program, seed uint64, key cache.Key, wal json.RawMessage, res service.SubmitResult, ft fwdTrace) (service.SubmitResult, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if dup, ok := g.cachedLocked(key); ok {
		// The twin gateway job owns the result; the forward this
		// submission already made is absorbed by the member's own
		// dedup (same content, same cache).
		return dup, nil
	}
	g.seq++
	rec := store.RouteRecord{
		ID: service.JobID(g.seq), Member: m.Name, RemoteID: res.ID, Seed: seed, Program: wal,
	}
	if err := g.store.LogRoute(rec); err != nil {
		g.seq--
		g.met.persistErrors.Inc()
		return service.SubmitResult{}, fmt.Errorf("%w: %v", service.ErrPersist, err)
	}
	j := g.routeLocked(rec, m, key, service.Job{Program: pr.Name, Eligible: res.Eligible})
	if g.obs != nil {
		j.trace = obs.NewTrace(j.id, ft.parent)
	}
	// Root and place are recorded retroactively from the stamps the
	// forwarding path carried — the job ID they hang off was only just
	// minted. The forward span closes now: its round trip ended when the
	// member acked.
	j.spanRoot = j.trace.Add("job", ft.parent, ft.subAt, 0,
		obs.Attr{K: "program", V: pr.Name})
	j.trace.Add("place", j.spanRoot.ID(), ft.subAt, ft.placeEnd)
	fwd := j.trace.Add("forward", j.spanRoot.ID(), ft.fwdAt, obs.Now(),
		obs.Attr{K: "member", V: m.Name},
		obs.Attr{K: "remote_id", V: res.ID},
		obs.Attr{K: "ref", V: ft.ref})
	j.fwdRef = ft.ref
	j.fwdSpan = fwd.ID()
	g.views[idx].pending++
	g.met.forwarded.Inc()
	g.wg.Add(1)
	go g.relay(j)

	out := service.SubmitResult{ID: j.id, Eligible: res.Eligible, Cache: res.Cache}
	// A member-side hit names the member's root job; surface it as the
	// gateway job that routed that root, when this gateway did.
	if res.DedupOf != "" {
		out.DedupOf = g.remote[routeKey(m.Name, res.DedupOf)]
	}
	return out, nil
}

// routeLocked builds the routed job a route record binds, and
// registers it: in the job table, under its member-side ID and, when
// key is not zero, in the result-cache index (each first writer
// winning), with its mirror and its completion channel, and counted
// live until finishLocked ends it. bind and recover build every routed
// job through it. snap carries what the caller knows beyond the record
// (program name, eligible set, recovered); m is nil when the record's
// member left the members spec. Caller holds g.mu, or is New's
// recovery, which runs before anything else can.
func (g *Gateway) routeLocked(r store.RouteRecord, m *Member, key cache.Key, snap service.Job) *gwJob {
	snap.ID, snap.Status, snap.Seed = r.ID, service.StatusQueued, r.Seed
	snap.Assigned, snap.Shard = -1, -1
	if m != nil {
		snap.Member = m.Name
	}
	j := &gwJob{id: r.ID, member: m, remoteID: r.RemoteID, key: key, snap: snap,
		done: make(chan struct{}), mirror: stream.NewRing()}
	g.jobs[j.id] = j
	if _, dup := g.remote[routeKey(r.Member, r.RemoteID)]; !dup {
		g.remote[routeKey(r.Member, r.RemoteID)] = j.id
	}
	if _, dup := g.byKey[key]; !dup && !key.Zero() {
		g.byKey[key] = j
	}
	g.live++
	return j
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
			var st service.Stats
			err := m.Stats(g.ctx, &st)
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

// finishLocked ends a routed job with its terminal snapshot, exactly
// once: counters, a failed root's release from the result-cache index
// (a retry should forward again), the live count, and the completion
// broadcast drains and long-polls wait on. Its callers are the job's
// relay, with the member's record, and fail. Caller holds g.mu.
func (g *Gateway) finishLocked(j *gwJob, snap service.Job) {
	j.snap = snap
	g.live--
	j.spanRoot.End()
	if snap.Status == service.StatusDone {
		g.met.done.Inc()
	} else {
		g.met.failed.Inc()
		if g.byKey[j.key] == j {
			delete(g.byKey, j.key)
		}
	}
	close(j.done)
	g.cond.Broadcast()
}

// fail ends a routed job the gateway can no longer follow — its member
// lost it, or left the members spec — as failed with msg. The snapshot
// keeps what the gateway knows of the job (program, seed, eligible
// set), and the mirror ends with the job.failed frame a worker would
// have published, so subscribers terminate instead of hanging. The
// failure is persisted like any end (endMirror), so a restart serves
// it from the log.
func (g *Gateway) fail(j *gwJob, msg string) {
	g.mu.Lock()
	snap := j.snap
	snap.Status, snap.Error = service.StatusFailed, msg
	g.finishLocked(j, snap)
	g.mu.Unlock()
	g.endMirror(j, &snap, stream.Event{Seq: j.mirror.Last() + 1, Type: stream.JobFailed,
		Job: &stream.JobInfo{ID: j.id}, Err: msg})
}

// endMirror feeds a finished routed job's terminal frame ev to its
// mirror and closes it, then persists the job, snap being its terminal
// snapshot: the finish record, spliced from the member's report bytes
// and the mirror's event bytes, goes to the gateway's log, and the
// mirror is offloaded to it (service.PersistFinish). It runs outside
// g.mu, so a finish append never stalls bind's route append, and before
// the job's relay returns, so Close closes the log after it.
func (g *Gateway) endMirror(j *gwJob, snap *service.Job, ev stream.Event) {
	j.mirror.Feed(ev)
	j.mirror.Close()
	service.PersistFinish(g.store, snap, j.mirror, j.key, g.met.persistErrors)
}

// rewriteLocked maps a member-side snapshot into the gateway's
// namespace: the gateway job ID replaces the remote one, the member
// name is stamped on, and a member-side dedup root is translated when
// this gateway routed it (otherwise the provenance flag survives
// without the foreign ID). The recovered flag and a missing program
// name come from the job's record, read before finishLocked replaces
// it. Caller holds g.mu.
func (g *Gateway) rewriteLocked(j *gwJob, rj service.Job) service.Job {
	rj.ID = j.id
	rj.Member = j.member.Name
	rj.Recovered = rj.Recovered || j.snap.Recovered
	if rj.DedupOf != "" {
		rj.DedupOf = g.remote[routeKey(j.member.Name, rj.DedupOf)]
	}
	if rj.Program == "" {
		rj.Program = j.snap.Program
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

// Get snapshots a gateway job: what its relay last read from the
// member's stream — queued, running from job.started on — and, once
// the relay finished it, the member's terminal record.
func (g *Gateway) Get(id string) (service.Job, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	if !ok {
		return service.Job{}, false
	}
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
		return service.Job{}, false, fmt.Errorf("%w %q", service.ErrUnknownJob, id)
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
// is terminal (the live count is zero). Jobs keep executing on their
// members; the gateway only waits to have relayed every outcome it
// acked.
func (g *Gateway) Drain() {
	g.mu.Lock()
	g.draining = true
	for g.live > 0 {
		g.cond.Wait()
	}
	g.drainedOnce.Do(func() { close(g.drained) })
	g.mu.Unlock()
}

// Close releases the gateway: relays and the poller stop, idle member
// connections close, and the log closes after the relays' last finish
// appends (a private one is removed). It does not drain — call Drain
// first for a clean shutdown.
func (g *Gateway) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.cancel()
	g.wg.Wait()
	for _, m := range g.members {
		m.client.CloseIdleConnections()
	}
	// Each acked record was appended before its ack: a failed close loses none.
	_ = g.store.Close()
}
