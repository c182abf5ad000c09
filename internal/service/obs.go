package service

// Observability wiring: metric handles and per-job span traces
// (internal/obs), plus what the /v1/metrics and /v1/assays/{id}/trace
// endpoints serve. Everything here is out-of-band telemetry — when
// Config.Obs is nil every handle below is a nil no-op, and the
// determinism contract requires (and CI verifies) that reports and
// event streams are bit-identical either way. The obspurity detlint
// rule statically keeps obs values out of reports, event payloads and
// cache keys; see docs/observability.md.

import "biochip/internal/obs"

// svcMetrics is the worker daemon's metric handle set. A zero
// svcMetrics (observability disabled) is fully inert.
type svcMetrics struct {
	jobs        *obs.CounterVec   // status=done|failed
	queueDepth  *obs.GaugeVec     // class
	queueWait   *obs.HistogramVec // class
	execute     *obs.HistogramVec // profile
	persist     *obs.HistogramVec // (no labels)
	cacheEvents *obs.CounterVec   // kind=hit|disk_hit|miss|coalesced
	steals      *obs.CounterVec   // profile
	sse         *obs.GaugeVec     // (no labels)
}

// newSvcMetrics registers the worker metric families; reg may be nil.
func newSvcMetrics(reg *obs.Registry) svcMetrics {
	return svcMetrics{
		jobs:        reg.Counter("assayd_jobs_total", "Terminal jobs by status.", "status"),
		queueDepth:  reg.Gauge("assayd_queue_depth", "Queued jobs per compatibility class.", "class"),
		queueWait:   reg.Histogram("assayd_queue_wait_seconds", "Submit-to-claim wait per compatibility class.", nil, "class"),
		execute:     reg.Histogram("assayd_execute_seconds", "Execute stage wall latency per profile.", nil, "profile"),
		persist:     reg.Histogram("assayd_persist_seconds", "Finish-record persistence wall latency.", nil),
		cacheEvents: reg.Counter("assayd_cache_events_total", "Result-cache outcomes by kind.", "kind"),
		steals:      reg.Counter("assayd_steals_total", "Jobs claimed by a non-designated shard, per profile.", "profile"),
		sse:         reg.Gauge("assayd_sse_subscribers", "Open SSE event subscriptions."),
	}
}

// Metrics gathers the worker's metric families for /v1/metrics; false
// when observability is disabled.
func (s *Service) Metrics() ([]obs.MetricFamily, bool) {
	if s.cfg.Obs == nil {
		return nil, false
	}
	return s.cfg.Obs.Gather(), true
}

// Trace returns the wire snapshot of a job's span ring. The second
// result is false for unknown jobs and for jobs without a trace
// (observability disabled, or a job recovered from the durable log —
// span persistence is explicitly out of scope).
func (s *Service) Trace(id string) (obs.TraceDoc, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok || j.trace == nil {
		return obs.TraceDoc{}, false
	}
	return j.trace.Snapshot(), true
}
