package federation

import (
	"net/http"

	"biochip/internal/service"
)

// Handler exposes the gateway over HTTP through the worker's own
// handler (service.NewHandler): one route table, error mapping,
// long-poll and SSE loop for both roles. What is gateway-specific is
// only what the gateway hands back — job records carrying their
// member, the federated Stats, the aggregated Health and the merged
// metric families. A submission no member can take maps to 429 (all
// full, merged backlog), 503 (members draining or all unreachable) or
// 422 (no compatible profile anywhere).
func (g *Gateway) Handler() http.Handler { return service.NewHandler(g, g.met.sse) }

// List pages the gateway's routed jobs through service.ListJobs, as a
// worker lists its own: member names kept. Statuses are the relays'
// snapshots (see Get): a non-terminal job is as far as its event
// stream has reached.
func (g *Gateway) List(f service.ListFilter) service.ListPage {
	g.mu.Lock()
	defer g.mu.Unlock()
	return service.ListJobs(g.jobs, func(j *gwJob) *service.Job { return &j.snap }, f)
}

// StatsBody is the gateway's /v1/stats body: the federated Stats.
func (g *Gateway) StatsBody() any { return g.Stats() }

// HealthBody is the gateway's /v1/healthz body, AggregateHealth: ready
// unless the gateway drains or no member accepts work.
func (g *Gateway) HealthBody() (any, bool) {
	h := g.AggregateHealth()
	return h, h.Status != "draining" && h.Status != "unavailable"
}
