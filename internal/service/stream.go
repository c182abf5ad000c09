package service

import (
	"slices"

	"biochip/internal/stream"
)

// SubscribeEvents attaches a subscriber to a job's event stream,
// resuming after the given sequence number (0 replays from the start of
// the stream). The second result is false for unknown jobs. The ring
// lives as long as the job record and keeps every event, so a finished
// job's stream replays in full (from the log once its finish record is
// written); callers must Cancel the subscription when done. Events come as the ring keeps them, from the
// ring and the log alike: sequence number, type and bytes (Data); a
// reader that needs a payload block decodes Data.
func (s *Service) SubscribeEvents(id string, after uint64) (*stream.Sub, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.ring.Subscribe(after), true
}

// Drain gracefully winds the service down: it stops admitting new
// submissions (Submit fails with ErrDraining) but — unlike Close —
// lets every already-admitted job run to completion, queued ones
// included. It blocks until the backlog is empty and then closes the
// channel returned by Drained, which the HTTP layer uses to send
// terminal shutdown events to open SSE subscribers. Idempotent;
// concurrent calls all block until the drain completes.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	for s.queued > 0 || s.running > 0 {
		s.cond.Wait()
	}
	if !s.drainedOnce {
		s.drainedOnce = true
		close(s.drained)
	}
	s.mu.Unlock()
}

// Draining reports whether the service has stopped admitting work.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drained returns a channel that closes once a Drain has completed —
// every admitted job terminal, nothing running.
func (s *Service) Drained() <-chan struct{} { return s.drained }

// ListFilter selects and pages the job listing (GET /v1/assays).
type ListFilter struct {
	// Status keeps only jobs in that state ("" keeps all).
	Status Status
	// After is an exclusive job-ID cursor: the page starts at the next
	// job past it in the listing order ("" starts at the beginning).
	After string
	// Limit caps the page size; 0 or negative means DefaultListLimit,
	// and MaxListLimit is the hard ceiling.
	Limit int
	// Newest lists jobs newest-first (descending ID) instead of the
	// default submission order.
	Newest bool
}

// Listing bounds.
const (
	DefaultListLimit = 50
	MaxListLimit     = 500
)

// ListPage is one page of the job listing. Jobs carry status and
// placement but not reports (fetch GET /v1/assays/{id} for those); Next
// is the cursor of the following page, empty on the last one.
type ListPage struct {
	Jobs []Job  `json:"jobs"`
	Next string `json:"next,omitempty"`
}

// List returns one page of jobs matching the filter, ordered by job ID
// (submission order, or newest-first with Newest). Snapshots omit the
// report payloads so a busy service can be listed cheaply.
func (s *Service) List(f ListFilter) ListPage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ListJobs(s.jobs, func(j *Job) *Job { return j }, f)
}

// ListJobs pages a job table, where record reads a table entry's job
// record: it keeps the records matching f.Status, orders their IDs by
// CompareJobIDs, cuts the page with PageIDs and copies the page's
// records without their reports (listings are summaries; fetch the job
// for the report). Workers and gateways both list through it, each
// under its own lock, so listings behave identically on either role.
func ListJobs[J any](jobs map[string]J, record func(J) *Job, f ListFilter) ListPage {
	ids := make([]string, 0, len(jobs))
	for id, j := range jobs {
		if f.Status == "" || record(j).Status == f.Status {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, CompareJobIDs)
	ids, next := PageIDs(ids, f)
	page := ListPage{Jobs: make([]Job, len(ids)), Next: next}
	for i, id := range ids {
		page.Jobs[i] = *record(jobs[id])
		page.Jobs[i].Report = nil
	}
	return page
}

// PageIDs cuts one listing page out of the IDs of the jobs matching
// f.Status, sorted by CompareJobIDs — submission order. It applies the
// exclusive After cursor (placed by CompareJobIDs too), the order and
// the limit, and returns the page's IDs plus the Next cursor (empty on
// the last page). ListJobs pages through it.
func PageIDs(ids []string, f ListFilter) (page []string, next string) {
	limit := f.Limit
	if limit <= 0 {
		limit = DefaultListLimit
	}
	if limit > MaxListLimit {
		limit = MaxListLimit
	}
	if f.After != "" {
		// Keep the IDs past the cursor in listing order, so unknown
		// cursors still page deterministically.
		i, found := slices.BinarySearchFunc(ids, f.After, CompareJobIDs)
		switch {
		case f.Newest:
			ids = ids[:i]
		case found:
			ids = ids[i+1:]
		default:
			ids = ids[i:]
		}
	}
	if f.Newest {
		slices.Reverse(ids)
	}
	page = ids[:min(limit, len(ids))]
	if len(page) < len(ids) {
		next = page[len(page)-1]
	}
	return page, next
}
