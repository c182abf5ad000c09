package service

import (
	"encoding/hex"
	"encoding/json"
	"fmt"

	"biochip/internal/assay"
	"biochip/internal/cache"
	"biochip/internal/store"
	"biochip/internal/stream"
)

// closedDone is the pre-closed completion channel shared by every job
// restored in a terminal state: Wait and WaitTimeout return immediately.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// recover replays the durable log into a freshly built fleet, before
// any shard loop runs. Jobs with a finish record are restored in their
// terminal state and served from disk: the report is the log's bytes,
// and the event ring is a RecoveredRing whose backfill reads the
// persisted stream, so SSE replay and Last-Event-ID resume work exactly
// as they would have against the original process. Jobs with only a
// submit record were queued or running when the previous process died;
// executions are pure functions of (program, seed, profile config), so
// they are simply re-admitted and re-executed, re-emitting the same
// event sequence bit for bit. A recovered job that no longer fits any
// profile (the fleet shrank across the restart) is failed — durably, so
// the next restart serves the failure from disk instead of retrying
// forever. Caller guarantees s.durable.
func (s *Service) recover() error {
	type history struct {
		sub *store.SubmitRecord
		fin *store.FinishRecord
	}
	var order []string
	byID := make(map[string]*history)
	err := s.store.Replay(func(rec *store.Record) error {
		switch rec.Kind {
		case store.KindSubmit:
			if byID[rec.Submit.ID] != nil {
				return fmt.Errorf("service: recovery: duplicate submit record %q", rec.Submit.ID)
			}
			byID[rec.Submit.ID] = &history{sub: rec.Submit}
			order = append(order, rec.Submit.ID)
		case store.KindFinish:
			h := byID[rec.Finish.ID]
			if h == nil {
				return fmt.Errorf("service: recovery: finish record %q without submission", rec.Finish.ID)
			}
			if h.fin != nil {
				return fmt.Errorf("service: recovery: duplicate finish record %q", rec.Finish.ID)
			}
			h.fin = rec.Finish
		}
		return nil
	})
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range order {
		h := byID[id]
		var seq int
		if n, err := fmt.Sscanf(id, "a-%06d", &seq); n != 1 || err != nil || seq < 1 {
			return fmt.Errorf("service: recovery: malformed job id %q", id)
		}
		if seq <= s.seq {
			return fmt.Errorf("service: recovery: job id %q out of order", id)
		}
		var pr assay.Program
		if err := json.Unmarshal(h.sub.Program, &pr); err != nil {
			return fmt.Errorf("service: recovery: job %s: decoding program: %w", id, err)
		}
		if h.fin != nil {
			s.seq = seq
			if err := s.restoreFinishedLocked(id, pr, h.sub.Seed, h.fin); err != nil {
				return err
			}
			continue
		}
		// In flight (queued or running) when the previous process died:
		// re-place and re-execute. The submit record already exists in
		// the log, so enqueueLocked must not — and does not — re-WAL.
		eligible, _ := s.place(pr)
		if len(eligible) == 0 {
			s.seq = seq
			s.failRecoveredLocked(id, pr, h.sub.Seed)
			continue
		}
		key, err := s.cacheKey(pr, h.sub.Seed, eligible)
		if err != nil {
			return fmt.Errorf("service: recovery: job %s: %w", id, err)
		}
		s.seq = seq - 1
		target := s.assign(s.seq, shardIDsOf(s.shards, eligible))
		s.enqueueLocked(id, pr, h.sub.Seed, target, eligible, true, key, "")
		s.met.recovered.Inc()
	}
	return nil
}

// restoreFinishedLocked rebuilds a finished job from its terminal
// record: terminal status, the report as the log's bytes, and a
// recovered ring serving the persisted event stream. A cache-hit alias
// (DedupOf) is rebuilt sharing its root's report and ring — the root is
// always earlier in the log, since an alias finish record is only ever
// written after its root's. Keyed roots re-warm the LRU tier, so a
// restarted daemon answers cache lookups for everything it ever
// computed. Caller holds s.mu.
func (s *Service) restoreFinishedLocked(id string, pr assay.Program, seed uint64, fin *store.FinishRecord) error {
	if fin.DedupOf != "" {
		root := s.jobs[fin.DedupOf]
		if root == nil || root.Status != StatusDone {
			return fmt.Errorf("service: recovery: job %s: dedup root %q missing or not done", id, fin.DedupOf)
		}
		j := &Job{
			ID:        id,
			Status:    StatusDone,
			Program:   pr.Name,
			Seed:      seed,
			Eligible:  fin.Eligible,
			Profile:   fin.Profile,
			Assigned:  -1,
			Shard:     -1,
			Recovered: true,
			CacheHit:  true,
			DedupOf:   fin.DedupOf,
			Report:    root.Report,
			pr:        pr,
			done:      closedDone,
			ring:      root.ring,
			persisted: true,
		}
		s.jobs[id] = j
		s.met.done.Inc()
		s.met.recovered.Inc()
		return nil
	}
	j := &Job{
		ID:        id,
		Status:    Status(fin.Status),
		Program:   pr.Name,
		Seed:      seed,
		Eligible:  fin.Eligible,
		Profile:   fin.Profile,
		Assigned:  -1,
		Shard:     -1,
		Recovered: true,
		Error:     fin.Error,
		pr:        pr,
		done:      closedDone,
		ring:      stream.RecoveredRing(uint64(len(fin.Events)), s.storeBackfill(id)),
		persisted: true,
	}
	switch j.Status {
	case StatusDone:
		j.Report = fin.Report
		s.met.done.Inc()
	case StatusFailed:
		s.met.failed.Inc()
	default:
		return fmt.Errorf("service: recovery: job %s: terminal record with status %q", id, fin.Status)
	}
	if s.lru != nil && fin.Key != "" && j.Status == StatusDone {
		var key cache.Key
		if n, err := hex.Decode(key[:], []byte(fin.Key)); err == nil && n == len(key) {
			j.key = key
			s.cacheReleaseLocked(s.lru.Add(key, cache.Entry{ID: id, Bytes: int64(len(fin.Report))}))
		}
	}
	s.jobs[id] = j
	s.met.recovered.Inc()
	return nil
}

// failRecoveredLocked terminally fails a recovered in-flight job that no
// longer fits any profile of the (changed) fleet, persisting the failure
// so the next restart serves it from disk. Caller holds s.mu.
func (s *Service) failRecoveredLocked(id string, pr assay.Program, seed uint64) {
	_, reasons := s.place(pr)
	ierr := &IncompatibleError{Program: pr.Name,
		Requirements: pr.EffectiveRequirements(), Reasons: reasons}
	j := &Job{
		ID:        id,
		Status:    StatusFailed,
		Program:   pr.Name,
		Seed:      seed,
		Assigned:  -1,
		Shard:     -1,
		Recovered: true,
		Error:     ierr.Error(),
		pr:        pr,
		done:      closedDone,
		ring:      stream.NewRing(s.cfg.EventBuffer),
	}
	j.ring.Pin()
	j.ring.Publish(stream.Event{Type: stream.JobPlaced, Job: &stream.JobInfo{
		ID: id, Program: pr.Name, Seed: seed,
	}})
	j.ring.Publish(stream.Event{Type: stream.JobFailed,
		Job: &stream.JobInfo{ID: id}, Err: j.Error})
	j.ring.Close()
	s.persistFinishLocked(j)
	s.jobs[id] = j
	s.met.failed.Inc()
	s.met.recovered.Inc()
}
