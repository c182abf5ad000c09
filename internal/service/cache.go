package service

// The result cache: every job is a pure function of (canonical program
// JSON, seed, eligible-profile configs) — the determinism contract —
// so Submit content-addresses each submission (internal/cache) and
// serves duplicates without touching a shard or consuming a queue
// slot. Three fast paths, checked in order under the service lock:
//
//   - singleflight: an identical submission is already queued or
//     running → the caller is attached to it (202 with the existing
//     job ID, no new record, no WAL append);
//   - memory hit: the LRU maps the key to a finished root job → a new
//     alias job is minted instantly in StatusDone, sharing the root's
//     report and event ring (CacheHit/DedupOf provenance);
//   - disk hit (durable services): the store's keyed finish index maps
//     the key to a recovered root → same alias, plus LRU promotion.
//
// docs/caching.md documents the key derivation, the two-tier
// semantics and the bit-identity guarantee.

import (
	"encoding/json"
	"fmt"
	"strings"

	"biochip/internal/assay"
	"biochip/internal/cache"
	"biochip/internal/obs"
	"biochip/internal/store"
)

// CacheConfig sizes the result cache.
type CacheConfig struct {
	// Entries bounds the in-memory LRU tier; 0 means
	// cache.DefaultLRUEntries. On a non-durable service each entry pins
	// its root job's event ring, holding the full stream, so the bound
	// is also the replay-memory bound.
	Entries int
	// Disable turns the result cache off entirely: every submission
	// executes, exactly as before the cache existed.
	Disable bool
}

// QueueFullError is returned by Submit when the bounded submission
// queue is at capacity. It unwraps to ErrQueueFull (so errors.Is keeps
// working) and carries the per-class backlog snapshot, letting clients
// distinguish genuine saturation from a workload the cache would have
// absorbed. HTTP maps it to 429 with the backlog in the body.
type QueueFullError struct {
	// Queued and Depth are the instantaneous fill and the configured
	// bound of the submission queue.
	Queued int `json:"queued"`
	Depth  int `json:"depth"`
	// Classes is the backlog per live compatibility class (non-empty
	// classes only), in class-creation order.
	Classes []ClassStats `json:"classes,omitempty"`
}

// Error implements error.
func (e *QueueFullError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "service: submission queue full (%d/%d", e.Queued, e.Depth)
	for i, cls := range e.Classes {
		if i == 0 {
			b.WriteString("; backlog ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %d", strings.Join(cls.Profiles, "+"), cls.Queued)
	}
	b.WriteString(")")
	return b.String()
}

// Unwrap makes errors.Is(err, ErrQueueFull) hold.
func (e *QueueFullError) Unwrap() error { return ErrQueueFull }

// SubmitResult is the detailed outcome of one submission.
type SubmitResult struct {
	// ID is the job to follow. On a coalesced submission it is the
	// already-running job's ID (202-with-existing-id semantics), not a
	// fresh one.
	ID string `json:"id"`
	// Eligible is the profile placement, as in Job.Eligible.
	Eligible []string `json:"eligible,omitempty"`
	// Cache reports how the submission was served: "" (executed),
	// "hit" (answered from the result cache) or "coalesced" (attached
	// to an identical in-flight job).
	Cache string `json:"cache,omitempty"`
	// DedupOf is the root job that computed the result, set on cache
	// hits.
	DedupOf string `json:"dedup_of,omitempty"`
}

// Submit places the program on the fleet and enqueues it for execution
// under the request's seed, returning the job to follow plus cache
// provenance. A malformed program (assay.CheckOps) fails outright; a
// well-formed program that no profile can satisfy fails with
// *IncompatibleError; a full queue fails fast with *QueueFullError
// (errors.Is-compatible with ErrQueueFull); a draining service with
// ErrDraining, a closed one with ErrClosed. A content-addressed
// duplicate of a finished job returns instantly with a done alias job
// (Cache "hit"), and a duplicate of an in-flight job attaches to it
// (Cache "coalesced", the in-flight job's own ID). req.Trace, set by a
// forwarding gateway, becomes the foreign parent of the job's span
// trace.
func (s *Service) Submit(req SubmitRequest) (SubmitResult, error) {
	pr, seed, traceParent := req.Program, req.Seed, req.Trace
	var subAt, placeAt, placeEnd obs.Stamp
	if s.tracing {
		subAt = obs.Now()
	}
	if err := pr.CheckOps(); err != nil {
		return SubmitResult{}, err
	}
	if s.tracing {
		placeAt = obs.Now()
	}
	eligible, reasons := s.place(pr)
	if s.tracing {
		placeEnd = obs.Now()
	}
	if len(eligible) == 0 {
		return SubmitResult{}, &IncompatibleError{Program: pr.Name,
			Requirements: pr.EffectiveRequirements(), Reasons: reasons}
	}
	key, err := s.cacheKey(pr, seed, eligible)
	if err != nil {
		return SubmitResult{}, err
	}
	var wal json.RawMessage
	if s.durable {
		raw, err := json.Marshal(pr)
		if err != nil {
			return SubmitResult{}, fmt.Errorf("%w: encoding program: %v", ErrPersist, err)
		}
		wal = raw
	}
	shardIDs := shardIDsOf(s.shards, eligible)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SubmitResult{}, ErrClosed
	}
	if s.draining {
		return SubmitResult{}, ErrDraining
	}
	// Cache fast paths come before the queue-capacity check: a
	// duplicate is answered even when the queue is full, because it
	// consumes no slot.
	if !key.Zero() {
		if root, ok := s.inflight[key]; ok {
			s.met.coalesced.Inc()
			return SubmitResult{ID: root.ID, Eligible: root.Eligible, Cache: "coalesced"}, nil
		}
		if root := s.cachedRootLocked(key); root != nil {
			return s.serveHitLocked(root, pr, seed, wal, traceParent)
		}
	}
	if s.queued >= s.cfg.QueueDepth {
		return SubmitResult{}, s.queueFullLocked()
	}
	target := s.assign(s.seq, shardIDs)
	legal := false
	for _, id := range shardIDs {
		legal = legal || id == target
	}
	if !legal {
		return SubmitResult{}, fmt.Errorf("service: assignment to ineligible shard %d", target)
	}
	id := fmt.Sprintf("a-%06d", s.seq+1)
	if s.durable {
		// WAL before ack: the submission must exist on stable storage
		// before the client hears about the job, so a crash after
		// Submit returns can never lose an acknowledged assay.
		if err := s.store.LogSubmit(store.SubmitRecord{ID: id, Seed: seed, Program: wal}); err != nil {
			s.met.persistErrors.Inc()
			return SubmitResult{}, fmt.Errorf("%w: %v", ErrPersist, err)
		}
	}
	if !key.Zero() {
		s.met.miss.Inc()
	}
	j := s.enqueueLocked(id, pr, seed, target, eligible, false, key, traceParent)
	if s.tracing {
		j.trace.Add("submit", j.spanRoot.ID(), subAt, obs.Now())
		j.trace.Add("place", j.spanRoot.ID(), placeAt, placeEnd,
			obs.Attr{K: "class", V: j.class})
	}
	return SubmitResult{ID: j.ID, Eligible: j.Eligible}, nil
}

// cacheKey content-addresses one submission, or returns the zero key
// when the submission is not cacheable: the cache is disabled, or some
// eligible profile opts out (a job that *may* run on a NoCache profile
// must always execute — eligibility, not the executing shard, is what
// the key binds).
func (s *Service) cacheKey(pr assay.Program, seed uint64, eligible []*profile) (cache.Key, error) {
	if s.lru == nil {
		return cache.Key{}, nil
	}
	mats := make([]cache.ProfileMaterial, 0, len(eligible))
	for _, p := range eligible {
		if p.NoCache {
			return cache.Key{}, nil
		}
		mats = append(mats, cache.ProfileMaterial{Name: p.Name, Config: p.cacheCfg})
	}
	key, err := cache.KeyOf(pr, seed, mats)
	if err != nil {
		return cache.Key{}, fmt.Errorf("service: cache key: %w", err)
	}
	return key, nil
}

// cachedRootLocked resolves a key to a finished root job through the
// two cache tiers — LRU first, then (durable services) the store's
// keyed finish index, promoting disk hits into the LRU. Caller holds
// s.mu.
func (s *Service) cachedRootLocked(key cache.Key) *Job {
	if e, ok := s.lru.Get(key); ok {
		if root := s.jobs[e.ID]; root != nil && root.Status == StatusDone {
			s.met.hit.Inc()
			return root
		}
		s.lru.Remove(key)
	}
	if s.durable {
		if id, ok := s.store.FinishByKey(key.String()); ok {
			if root := s.jobs[id]; root != nil && root.Status == StatusDone {
				s.met.diskHit.Inc()
				s.cacheReleaseLocked(s.lru.Add(key, cache.Entry{ID: id, Bytes: int64(len(root.Report))}))
				return root
			}
		}
	}
	return nil
}

// serveHitLocked answers a submission from a finished root job: it
// mints a new job record that is born terminal — CacheHit provenance,
// the root's report bytes and the root's event ring, so Get, Wait,
// SSE streaming and Last-Event-ID resume all behave exactly as if the
// job had executed. On a durable service the alias is logged as a
// submit record plus a finish record that carries only DedupOf (the
// report and stream live once, in the root's record). Caller holds
// s.mu.
//
// Invariant: on a durable service every cache-resident root is
// persisted — finish() and recovery only insert persisted roots — so
// the alias's DedupOf reference is always resolvable after a restart.
func (s *Service) serveHitLocked(root *Job, pr assay.Program, seed uint64, wal json.RawMessage, traceParent string) (SubmitResult, error) {
	id := fmt.Sprintf("a-%06d", s.seq+1)
	if s.durable {
		if err := s.store.LogSubmit(store.SubmitRecord{ID: id, Seed: seed, Program: wal}); err != nil {
			s.met.persistErrors.Inc()
			return SubmitResult{}, fmt.Errorf("%w: %v", ErrPersist, err)
		}
	}
	s.seq++
	j := &Job{
		ID:       id,
		Status:   StatusDone,
		Program:  pr.Name,
		Seed:     seed,
		Eligible: root.Eligible,
		Profile:  root.Profile,
		Assigned: -1,
		Shard:    -1,
		CacheHit: true,
		DedupOf:  root.ID,
		Report:   root.Report,
		pr:       pr,
		done:     closedDone,
		ring:     root.ring,
	}
	if s.tracing {
		j.trace = obs.NewTrace(id, traceParent)
		j.spanRoot = j.trace.Start("job", traceParent, obs.Attr{K: "program", V: pr.Name})
		j.trace.Start("cache.hit", j.spanRoot.ID(), obs.Attr{K: "dedup_of", V: root.ID}).End()
		j.spanRoot.End()
	}
	s.jobs[id] = j
	s.met.done.Inc()
	if s.durable {
		rec := store.FinishRecord{
			ID:       id,
			Status:   string(StatusDone),
			Profile:  root.Profile,
			Eligible: root.Eligible,
			DedupOf:  root.ID,
		}
		if err := s.store.LogFinish(rec); err != nil {
			// The alias completes in memory regardless; without its
			// finish record it is simply re-executed (deterministically)
			// after a restart.
			s.met.persistErrors.Inc()
		} else {
			j.persisted = true
		}
	}
	return SubmitResult{ID: id, Eligible: j.Eligible, Cache: "hit", DedupOf: root.ID}, nil
}

// cacheInsertLocked registers a freshly finished root job in the LRU
// tier and releases whatever the insertion evicted. Caller holds s.mu
// and guarantees the job is done and (on a durable service) persisted.
func (s *Service) cacheInsertLocked(j *Job) {
	bytes := int64(len(j.Report))
	if !s.durable {
		if raw, err := json.Marshal(j.ring.Events()); err == nil {
			bytes += int64(len(raw))
		}
	}
	s.cacheReleaseLocked(s.lru.Add(j.key, cache.Entry{ID: j.ID, Bytes: bytes}))
}

// cacheReleaseLocked unpins the rings of evicted LRU roots. On a
// non-durable service the stream beyond the window is then gone,
// exactly the pre-cache behavior; a durable service's roots were
// unpinned when persisted, and the store keeps serving their streams.
// Caller holds s.mu.
func (s *Service) cacheReleaseLocked(evicted []cache.Entry) {
	for _, e := range evicted {
		if root := s.jobs[e.ID]; root != nil {
			root.ring.Unpin()
		}
	}
}

// queueFullLocked snapshots the per-class backlog into a
// *QueueFullError. Caller holds s.mu.
func (s *Service) queueFullLocked() error {
	e := &QueueFullError{Queued: s.queued, Depth: s.cfg.QueueDepth}
	for _, cls := range s.classList {
		if n := cls.queue.Len(); n > 0 {
			e.Classes = append(e.Classes, ClassStats{Profiles: cls.names, Queued: n})
		}
	}
	return e
}

// CacheStats is the result-cache block of Stats (GET /v1/stats),
// present when the cache is enabled.
type CacheStats struct {
	// Entries/Capacity/Bytes describe the in-memory LRU tier.
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
	Bytes    int64 `json:"bytes"`
	// Hits counts submissions answered from the LRU tier, DiskHits
	// from the durable tier, Misses cacheable submissions that had to
	// execute, and Coalesced submissions attached to an identical
	// in-flight job. Non-cacheable submissions count nowhere.
	Hits      uint64 `json:"hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	// Inflight is the current size of the singleflight table.
	Inflight int `json:"inflight"`
}
