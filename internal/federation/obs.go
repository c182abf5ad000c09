package federation

// Gateway observability: the metric set, member scrape re-export and
// cross-hop trace stitching. The registry behind the metric set is the
// gateway's only counter store: Stats reads the very counters
// /v1/metrics renders. Every stage stamps and observes its metrics
// either way; with Config.Obs nil they go to a private registry that
// backs /v1/stats alone, and routed jobs get no trace, so their span
// calls are inert. As on a worker, everything here is out-of-band telemetry — routing
// decisions, reports and event streams are bit-identical with
// observability on or off (docs/observability.md).
//
// The federation hop is stitched with the X-Assay-Trace header: each
// forward carries a reference minted from a monotonic counter, the
// worker records it as its root span's parent, and the gateway's trace
// endpoint fetches the member tree, rewrites the member's span IDs
// into the gateway namespace ("<gwID>/m:<n>") and reparents the member
// root onto the forward span.

import (
	"strings"
	"sync"

	"biochip/internal/obs"
)

// gwMetrics is the gateway's metric set, every counter series
// resolved when it is built. Gateway-own families carry a gateway_
// prefix so they never collide with the member families re-exported
// under a member label.
type gwMetrics struct {
	forwarded, recovered, persistErrors *obs.Counter // (no labels)
	done, failed                        *obs.Counter // routed jobs, restored ones included
	hit, miss, coalesced                *obs.Counter // gateway cache outcomes

	forward  *obs.HistogramVec // member
	memberUp *obs.GaugeVec     // member
	sse      *obs.GaugeVec     // (no labels)
}

// newGwMetrics registers the gateway metric families in reg.
func newGwMetrics(reg *obs.Registry) gwMetrics {
	jobs := reg.Counter("assayd_gateway_jobs_total", "Terminal routed jobs by status.", "status")
	cache := reg.Counter("assayd_gateway_cache_events_total", "Gateway result-cache outcomes by kind.", "kind")
	return gwMetrics{
		forwarded:     reg.Counter("assayd_gateway_forwarded_total", "Submissions forwarded to a member and bound.").With(),
		done:          jobs.With("done"),
		failed:        jobs.With("failed"),
		recovered:     reg.Counter("assayd_gateway_recovered_total", "Routed jobs re-resolved from the route log at startup.").With(),
		persistErrors: reg.Counter("assayd_gateway_persist_errors_total", "Log appends (route or finish records) that failed.").With(),
		hit:           cache.With("hit"),
		miss:          cache.With("miss"),
		coalesced:     cache.With("coalesced"),
		forward:       reg.Histogram("assayd_forward_seconds", "Member submission round-trip wall latency.", nil, "member"),
		memberUp:      reg.Gauge("assayd_member_up", "1 when the member answered its last scrape or poll, else 0.", "member"),
		sse:           reg.Gauge("assayd_gateway_sse_subscribers", "Open proxied SSE event subscriptions."),
	}
}

// Metrics gathers the gateway's /v1/metrics families: its own merged
// with every reachable member's scrape, each member's samples
// re-exported under a prepended member label. The member-up gauge is
// refreshed from the scrapes themselves before gathering, so one
// response is a whole-fleet picture. False when observability is
// disabled on the gateway.
func (g *Gateway) Metrics() ([]obs.MetricFamily, bool) {
	if g.obs == nil {
		return nil, false
	}
	scrapes := make([][]obs.MetricFamily, len(g.members))
	var wg sync.WaitGroup
	for i, m := range g.members {
		wg.Add(1)
		go func(i int, m *Member) {
			defer wg.Done()
			fams, err := m.Metrics(g.ctx)
			if err != nil {
				g.met.memberUp.With(m.Name).Set(0)
				return
			}
			g.met.memberUp.With(m.Name).Set(1)
			scrapes[i] = obs.Relabel(fams, "member", m.Name)
		}(i, m)
	}
	wg.Wait()
	fams := g.obs.Gather()
	for _, s := range scrapes {
		fams = obs.MergeFamilies(fams, s)
	}
	return fams, true
}

// Trace returns the stitched span tree of a routed job: the gateway's
// own spans plus the member's, fetched live and rewritten into the
// gateway namespace. False for unknown jobs and without Config.Obs.
func (g *Gateway) Trace(id string) (obs.TraceDoc, bool) {
	g.mu.Lock()
	j, ok := g.jobs[id]
	if !ok || j.trace == nil {
		g.mu.Unlock()
		return obs.TraceDoc{}, false
	}
	doc := j.trace.Snapshot()
	m, remoteID := j.member, j.remoteID
	fwdRef, fwdSpan := j.fwdRef, j.fwdSpan
	g.mu.Unlock()
	if m == nil {
		return doc, true
	}
	mdoc, err := m.Trace(g.ctx, remoteID)
	if err != nil {
		return doc, true
	}
	prefix := mdoc.Job + ":"
	rewrite := func(spanID string) string {
		if rest, ok := strings.CutPrefix(spanID, prefix); ok {
			return id + "/m:" + rest
		}
		return spanID
	}
	for _, sp := range mdoc.Spans {
		sp.ID = rewrite(sp.ID)
		if sp.Parent == fwdRef && fwdSpan != "" {
			sp.Parent = fwdSpan
		} else {
			sp.Parent = rewrite(sp.Parent)
		}
		doc.Spans = append(doc.Spans, sp)
	}
	doc.Dropped += mdoc.Dropped
	return doc, true
}
