package federation

// Gateway observability: forwarding metrics, member scrape re-export
// and cross-hop trace stitching. As on a worker, everything here is
// out-of-band telemetry — Config.Obs nil disables it all and routing
// decisions, reports and event streams are bit-identical either way
// (docs/observability.md).
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

// gwMetrics is the gateway's metric handle set; zero value (obs
// disabled) is fully inert. Gateway-own families carry a gateway_
// prefix so they never collide with the member families re-exported
// under a member label.
type gwMetrics struct {
	forward     *obs.HistogramVec // member
	memberUp    *obs.GaugeVec     // member
	jobs        *obs.CounterVec   // status=done|failed
	cacheEvents *obs.CounterVec   // kind=hit|miss|coalesced
	sse         *obs.GaugeVec     // (no labels)
}

// newGwMetrics registers the gateway metric families; reg may be nil.
func newGwMetrics(reg *obs.Registry) gwMetrics {
	return gwMetrics{
		forward:     reg.Histogram("assayd_forward_seconds", "Member submission round-trip wall latency.", nil, "member"),
		memberUp:    reg.Gauge("assayd_member_up", "1 when the member answered its last scrape or poll, else 0.", "member"),
		jobs:        reg.Counter("assayd_gateway_jobs_total", "Terminal routed jobs by status.", "status"),
		cacheEvents: reg.Counter("assayd_gateway_cache_events_total", "Gateway result-cache outcomes by kind.", "kind"),
		sse:         reg.Gauge("assayd_gateway_sse_subscribers", "Open proxied SSE event subscriptions."),
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
			fams, err := m.Metrics()
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
// gateway namespace. False for unknown jobs and with tracing disabled.
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
	mdoc, err := m.Trace(remoteID)
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
