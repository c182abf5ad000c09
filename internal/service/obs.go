package service

// Observability wiring: the metric set (internal/obs), per-job span
// traces, and what the /v1/metrics and /v1/assays/{id}/trace endpoints
// serve. The registry behind the metric set is the service's only
// counter store: Stats reads the very counters /v1/metrics renders.
// Every stage stamps and observes its metrics either way; with
// Config.Obs nil they go to a private registry that backs /v1/stats
// alone, and jobs get no trace, so their span calls are inert.
// Everything here is out-of-band telemetry — the determinism contract
// requires (and CI verifies) that reports and event streams are
// bit-identical with observability on or off. The obspurity detlint
// rule statically keeps obs values out of reports, event payloads and
// cache keys; see docs/observability.md.

import "biochip/internal/obs"

// svcMetrics is the worker daemon's metric set. Every counter series
// is resolved when the set is built — the per-shard ones by New as it
// builds each shard — so a scrape's series set never depends on which
// paths ran, and counter sites skip the label lookup.
type svcMetrics struct {
	done, failed             *obs.Counter    // terminal jobs, restored ones included
	recovered, persistErrors *obs.Counter    // (no labels)
	hit, miss, coalesced     *obs.Counter    // result-cache outcomes
	executed, steals         *obs.CounterVec // profile, shard

	queueDepth *obs.GaugeVec     // class
	queueWait  *obs.HistogramVec // class
	execute    *obs.HistogramVec // profile
	persist    *obs.HistogramVec // (no labels)
	sse        *obs.GaugeVec     // (no labels)
}

// newSvcMetrics registers the worker metric families in reg.
func newSvcMetrics(reg *obs.Registry) svcMetrics {
	jobs := reg.Counter("assayd_jobs_total", "Terminal jobs by status.", "status")
	cache := reg.Counter("assayd_cache_events_total", "Result-cache outcomes by kind.", "kind")
	return svcMetrics{
		done:          jobs.With("done"),
		failed:        jobs.With("failed"),
		recovered:     reg.Counter("assayd_recovered_total", "Jobs restored from the durable store at startup.").With(),
		persistErrors: reg.Counter("assayd_persist_errors_total", "Durable-store appends that failed.").With(),
		hit:           cache.With("hit"),
		miss:          cache.With("miss"),
		coalesced:     cache.With("coalesced"),
		executed:      reg.Counter("assayd_executed_total", "Jobs executed, per profile and shard.", "profile", "shard"),
		steals:        reg.Counter("assayd_steals_total", "Jobs claimed by a non-designated shard, per profile and shard.", "profile", "shard"),
		queueDepth:    reg.Gauge("assayd_queue_depth", "Queued jobs per compatibility class.", "class"),
		queueWait:     reg.Histogram("assayd_queue_wait_seconds", "Submit-to-claim wait per compatibility class.", nil, "class"),
		execute:       reg.Histogram("assayd_execute_seconds", "Execute stage wall latency per profile.", nil, "profile"),
		persist:       reg.Histogram("assayd_persist_seconds", "Finish-record persistence wall latency.", nil),
		sse:           reg.Gauge("assayd_sse_subscribers", "Open SSE event subscriptions."),
	}
}

// startTrace gives the job a span trace with its root span open when
// Config.Obs is set; otherwise the job has no trace and its span calls
// are no-ops. parent is the traceParent of enqueueLocked.
func (s *Service) startTrace(j *Job, parent string) {
	if s.cfg.Obs == nil {
		return
	}
	j.trace = obs.NewTrace(j.ID, parent)
	j.spanRoot = j.trace.Start("job", parent, obs.Attr{K: "program", V: j.Program})
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
