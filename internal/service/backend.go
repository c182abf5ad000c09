package service

import (
	"time"

	"biochip/internal/obs"
	"biochip/internal/stream"
)

// Backend is what the HTTP API (NewHandler) serves and what cmd/assayd
// runs: the local shard pool (*Service) on a worker, or a federation
// gateway (federation.Gateway) fronting worker daemons. The handler is
// written once against it, so both roles share one route table, one
// error mapping, one long-poll and one SSE loop; the gateway differs
// only in the bodies it hands back.
type Backend interface {
	// Submit admits one job, returning its ID, placement and cache
	// provenance. Errors follow the Service taxonomy, which the handler
	// maps to statuses: IncompatibleError (422), QueueFullError (429),
	// ErrDraining (503 + Retry-After), ErrClosed and ErrUnavailable
	// (503), ErrPersist (500), anything else (400).
	Submit(req SubmitRequest) (SubmitResult, error)
	// Get snapshots a job by ID.
	Get(id string) (Job, bool)
	// WaitTimeout blocks until the job is terminal or d elapses and
	// returns the snapshot at that moment plus whether it is terminal;
	// d <= 0 returns the current snapshot without waiting. An unknown
	// job is ErrUnknownJob.
	WaitTimeout(id string, d time.Duration) (Job, bool, error)
	// List pages through job snapshots (see PageIDs).
	List(f ListFilter) ListPage
	// SubscribeEvents attaches to a job's event stream after the given
	// sequence number; false for unknown jobs.
	SubscribeEvents(id string, after uint64) (*stream.Sub, bool)
	// Trace returns a job's span tree; false for unknown jobs and with
	// observability disabled.
	Trace(id string) (obs.TraceDoc, bool)
	// Draining reports whether Drain began; Drained closes once it
	// completed, which ends open SSE streams with a shutdown event.
	Draining() bool
	Drained() <-chan struct{}
	// Drain stops admission and blocks until every admitted job is
	// terminal; Close then releases the backend.
	Drain()
	Close()

	// The role-specific bodies, which the handler only encodes.
	// StatsBody is the GET /v1/stats reply.
	StatsBody() any
	// HealthBody is the GET /v1/healthz reply and whether the backend
	// is ready for traffic (200) or not (503).
	HealthBody() (body any, ready bool)
	// Metrics gathers the GET /v1/metrics families; enabled is false
	// when observability is off (404).
	Metrics() (fams []obs.MetricFamily, enabled bool)
}

var _ Backend = (*Service)(nil)
