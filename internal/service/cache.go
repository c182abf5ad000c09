package service

// The result cache: every job is a pure function of (canonical program
// JSON, seed, eligible-profile configs) — the determinism contract —
// so Submit content-addresses each submission (internal/cache) and
// serves duplicates without touching a shard or consuming a queue
// slot. One index, Service.byKey, maps a key to the root job that
// computes or computed it, and answers a duplicate under the service
// lock in one of two ways:
//
//   - coalesced: the root is queued or running → the caller is
//     attached to it (202 with the existing job ID, no new record, no
//     WAL append);
//   - hit: the root is done → a new alias job is minted instantly in
//     StatusDone, sharing the root's report and event ring
//     (CacheHit/DedupOf provenance).
//
// The index keeps every key for as long as the daemon keeps the root's
// record, which is for good; a restart over a data directory rebuilds
// it from the keyed finish records in the log. docs/caching.md documents
// the key derivation, the index and the bit-identity guarantee.

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"biochip/internal/assay"
	"biochip/internal/cache"
	"biochip/internal/obs"
	"biochip/internal/store"
)

// CacheConfig configures the result cache. Its index has no bound: an
// entry is one map slot beside the root's job record, which the service
// keeps for good.
type CacheConfig struct {
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
	// RetryAfter is the backoff hint of a 429 that Client read back;
	// the handler itself always sends 1 s.
	RetryAfter time.Duration `json:"-"`
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
	subAt := obs.Now()
	if err := pr.CheckOps(); err != nil {
		return SubmitResult{}, err
	}
	placeAt := obs.Now()
	eligible, reasons := s.place(pr)
	placeEnd := obs.Now()
	if len(eligible) == 0 {
		return SubmitResult{}, &IncompatibleError{Program: pr.Name,
			Requirements: pr.EffectiveRequirements(), Reasons: reasons}
	}
	key, err := s.cacheKey(pr, seed, eligible)
	if err != nil {
		return SubmitResult{}, err
	}
	wal, err := json.Marshal(pr)
	if err != nil {
		return SubmitResult{}, fmt.Errorf("%w: encoding program: %v", ErrPersist, err)
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
	// The cache answers before the queue-capacity check: a duplicate
	// is answered even when the queue is full, because it consumes no
	// slot. The zero key is never indexed.
	if root := s.byKey[key]; root != nil {
		if root.Status == StatusDone {
			s.met.hit.Inc()
			return s.serveHitLocked(root, pr, seed, wal, traceParent)
		}
		s.met.coalesced.Inc()
		return SubmitResult{ID: root.ID, Eligible: root.Eligible, Cache: "coalesced"}, nil
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
	id := JobID(s.seq + 1)
	// WAL before ack: the submission must be in the log before the
	// client hears about the job, so a crash after Submit returns can
	// never lose an acknowledged assay (on a log with fsync on).
	if err := s.store.LogSubmit(store.SubmitRecord{ID: id, Seed: seed, Program: wal}); err != nil {
		s.met.persistErrors.Inc()
		return SubmitResult{}, fmt.Errorf("%w: %v", ErrPersist, err)
	}
	if !key.Zero() {
		s.met.miss.Inc()
	}
	j := s.enqueueLocked(id, pr, seed, target, eligible, false, key, traceParent)
	j.trace.Add("submit", j.spanRoot.ID(), subAt, obs.Now())
	j.trace.Add("place", j.spanRoot.ID(), placeAt, placeEnd,
		obs.Attr{K: "class", V: j.class})
	return SubmitResult{ID: j.ID, Eligible: j.Eligible}, nil
}

// cacheKey content-addresses one submission, or returns the zero key
// when the submission is not cacheable: the cache is disabled, or some
// eligible profile opts out (a job that *may* run on a NoCache profile
// must always execute — eligibility, not the executing shard, is what
// the key binds).
func (s *Service) cacheKey(pr assay.Program, seed uint64, eligible []*profile) (cache.Key, error) {
	if s.byKey == nil {
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

// serveHitLocked answers a submission from a finished root job: it
// mints a new job record that is born terminal — CacheHit provenance,
// the root's report bytes and the root's event ring, so Get, Wait,
// SSE streaming and Last-Event-ID resume all behave exactly as if the
// job had executed. The alias is logged as a submit record plus a
// finish record that carries only DedupOf (the report and stream live
// once, in the root's record). Caller holds s.mu.
//
// Invariant: every done root in the index is persisted — finish drops
// one whose record did not persist, and recovery indexes only restored
// ones — so the alias's DedupOf reference is always resolvable after a
// restart.
func (s *Service) serveHitLocked(root *Job, pr assay.Program, seed uint64, wal json.RawMessage, traceParent string) (SubmitResult, error) {
	id := JobID(s.seq + 1)
	if err := s.store.LogSubmit(store.SubmitRecord{ID: id, Seed: seed, Program: wal}); err != nil {
		s.met.persistErrors.Inc()
		return SubmitResult{}, fmt.Errorf("%w: %v", ErrPersist, err)
	}
	s.seq++
	rec := store.FinishRecord{
		ID:       id,
		Status:   string(StatusDone),
		Profile:  root.Profile,
		Eligible: root.Eligible,
		DedupOf:  root.ID,
	}
	j := s.aliasLocked(pr, seed, root, &rec, false)
	s.startTrace(j, traceParent)
	j.trace.Start("cache.hit", j.spanRoot.ID(), obs.Attr{K: "dedup_of", V: root.ID}).End()
	j.spanRoot.End()
	if err := s.store.LogFinish(rec); err != nil {
		// The alias completes in memory regardless; without its finish
		// record it is simply re-executed (deterministically) after a
		// restart.
		s.met.persistErrors.Inc()
	}
	return SubmitResult{ID: id, Eligible: j.Eligible, Cache: "hit", DedupOf: root.ID}, nil
}

// aliasLocked registers a cache-hit alias of the done root, born done:
// its own ID, program and seed, the eligible set and profile of its
// finish record fin (for a hit, the record about to be logged; on
// restore, the logged one), and the root's report bytes and event ring.
// It counts the alias done. Caller holds s.mu.
func (s *Service) aliasLocked(pr assay.Program, seed uint64, root *Job, fin *store.FinishRecord, recovered bool) *Job {
	j := newJob(fin.ID, pr, seed, fin.Eligible, recovered)
	j.Status, j.Profile = StatusDone, fin.Profile
	j.CacheHit, j.DedupOf, j.Report = true, root.ID, root.Report
	j.done, j.ring = closedDone, root.ring
	s.jobs[j.ID] = j
	s.met.done.Inc()
	return j
}

// queueFullLocked snapshots the per-class backlog into a
// *QueueFullError. Caller holds s.mu.
func (s *Service) queueFullLocked() error {
	e := &QueueFullError{Queued: s.queued, Depth: s.cfg.QueueDepth}
	for _, cls := range s.classList {
		if n := len(cls.queue); n > 0 {
			e.Classes = append(e.Classes, ClassStats{Profiles: cls.names, Queued: n})
		}
	}
	return e
}

// CacheStats is the result-cache block of Stats (GET /v1/stats),
// present when the cache is enabled.
type CacheStats struct {
	// Entries is the size of the index: every key of a queued, running
	// or done root.
	Entries int `json:"entries"`
	// Hits counts submissions answered from a done root, Misses
	// cacheable submissions that had to execute, and Coalesced
	// submissions attached to an identical queued or running root.
	// Non-cacheable submissions count nowhere.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
}
