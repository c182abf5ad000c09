package federation

import (
	"sort"
	"sync"

	"biochip/internal/obs"
	"biochip/internal/service"
	"biochip/internal/store"
)

// MemberStats is one member's contribution to the gateway's /v1/stats:
// identity, reachability and — when the member answered — its full
// stats snapshot.
type MemberStats struct {
	Member    string `json:"member"`
	Addr      string `json:"addr"`
	Reachable bool   `json:"reachable"`
	Error     string `json:"error,omitempty"`
	// Stats is the member's own /v1/stats body, absent when
	// unreachable.
	Stats *service.Stats `json:"stats,omitempty"`
}

// GatewayStats is the gateway's own counter block: forwarding volume,
// routed-job outcomes and the gateway-level cache/store state, as
// opposed to the member-side numbers the fleet block merges. Done and
// Failed count terminal routed jobs, including those a durable gateway
// restored from its log at startup.
type GatewayStats struct {
	Members   int    `json:"members"`
	Jobs      int    `json:"jobs"`
	Forwarded uint64 `json:"forwarded"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	// Recovered counts routed jobs re-resolved from the log at startup;
	// PersistErrors counts log appends (route or finish records) that
	// failed.
	Recovered     uint64 `json:"recovered,omitempty"`
	PersistErrors uint64 `json:"persist_errors,omitempty"`
	Draining      bool   `json:"draining,omitempty"`
	// Store is the gateway log's snapshot, -data's or the private
	// one's: a route record per routed job, and a finish record per
	// finished one.
	Store *store.Stats `json:"store,omitempty"`
	// Cache is the gateway's own result-cache block (hits answered
	// without forwarding); absent when disabled.
	Cache *service.CacheStats `json:"cache,omitempty"`
}

// Stats is the gateway's /v1/stats body: the gateway's own counters,
// the fleet-wide merge of every reachable member's stats, and the
// per-member snapshots the merge was computed from
// (docs/examples/stats-federated.json).
type Stats struct {
	Gateway GatewayStats  `json:"gateway"`
	Fleet   service.Stats `json:"fleet"`
	Members []MemberStats `json:"members"`
}

// MergeStats folds the reachable members' snapshots into one
// fleet-wide service.Stats, as if the fleet were a single daemon:
// counters sum, uptime is the oldest member's, profiles merge by name
// (first-seen order, sizes from the first declaration), compatibility
// classes merge by profile set, planners merge by name (sorted, as a
// single daemon sorts them) and store/cache blocks sum across the
// members that have them. PerShard stays empty: shard IDs are
// member-local and would collide meaninglessly in a merged view.
func MergeStats(members []MemberStats) service.Stats {
	var out service.Stats
	profIdx := make(map[string]int)
	classIdx := make(map[string]int)
	plannerIdx := make(map[string]int)
	var mergedStore *store.Stats
	var mergedCache *service.CacheStats
	for _, ms := range members {
		if ms.Stats == nil {
			continue
		}
		st := ms.Stats
		out.Shards += st.Shards
		out.QueueDepth += st.QueueDepth
		out.Queued += st.Queued
		out.Running += st.Running
		out.Done += st.Done
		out.Failed += st.Failed
		out.Recovered += st.Recovered
		out.PersistErrors += st.PersistErrors
		out.CalibrationHits += st.CalibrationHits
		out.CalibrationMisses += st.CalibrationMisses
		if st.UptimeSeconds > out.UptimeSeconds {
			out.UptimeSeconds = st.UptimeSeconds
		}
		for _, p := range st.Profiles {
			i, ok := profIdx[p.Profile]
			if !ok {
				profIdx[p.Profile] = len(out.Profiles)
				out.Profiles = append(out.Profiles, p)
				continue
			}
			tgt := &out.Profiles[i]
			tgt.Shards += p.Shards
			tgt.Executed += p.Executed
			tgt.Stolen += p.Stolen
			tgt.Queued += p.Queued
			tgt.JobsPerSecond += p.JobsPerSecond
			tgt.CalibrationMisses += p.CalibrationMisses
		}
		for _, c := range st.Classes {
			key := classKey(c.Profiles)
			i, ok := classIdx[key]
			if !ok {
				classIdx[key] = len(out.Classes)
				out.Classes = append(out.Classes, service.ClassStats{
					Profiles: append([]string(nil), c.Profiles...), Queued: c.Queued})
				continue
			}
			out.Classes[i].Queued += c.Queued
		}
		for _, pl := range st.Planners {
			i, ok := plannerIdx[pl.Planner]
			if !ok {
				plannerIdx[pl.Planner] = len(out.Planners)
				out.Planners = append(out.Planners, pl)
				continue
			}
			tgt := &out.Planners[i]
			tgt.Plans += pl.Plans
			tgt.Steps += pl.Steps
			tgt.Moves += pl.Moves
			tgt.PlanSeconds += pl.PlanSeconds
		}
		if st.Store != nil {
			if mergedStore == nil {
				mergedStore = &store.Stats{Kind: "merged"}
			}
			mergedStore.Segments += st.Store.Segments
			mergedStore.Bytes += st.Store.Bytes
			mergedStore.Records += st.Store.Records
			mergedStore.Truncated += st.Store.Truncated
		}
		if st.Cache != nil {
			if mergedCache == nil {
				mergedCache = &service.CacheStats{}
			}
			mergedCache.Entries += st.Cache.Entries
			mergedCache.Hits += st.Cache.Hits
			mergedCache.Misses += st.Cache.Misses
			mergedCache.Coalesced += st.Cache.Coalesced
		}
	}
	sort.Slice(out.Planners, func(a, b int) bool {
		return out.Planners[a].Planner < out.Planners[b].Planner
	})
	out.PerShard = []service.ShardStats{}
	out.Store = mergedStore
	out.Cache = mergedCache
	return out
}

func classKey(profiles []string) string {
	key := ""
	for _, p := range profiles {
		key += p + "\x00"
	}
	return key
}

// MemberStatsSnapshot fetches every member's stats live, in members
// order. Unreachable members report the error instead of a snapshot.
func (g *Gateway) MemberStatsSnapshot() []MemberStats {
	out := make([]MemberStats, len(g.members))
	var wg sync.WaitGroup
	for i, m := range g.members {
		wg.Add(1)
		go func(i int, m *Member) {
			defer wg.Done()
			ms := MemberStats{Member: m.Name, Addr: m.Addr}
			var st service.Stats
			if err := m.Stats(g.ctx, &st); err != nil {
				ms.Error = err.Error()
			} else {
				ms.Reachable = true
				ms.Stats = &st
			}
			out[i] = ms
		}(i, m)
	}
	wg.Wait()
	return out
}

// Stats assembles the gateway's /v1/stats body: live member snapshots,
// their fleet-wide merge, and the gateway's own counters, read from the
// metric set /v1/metrics serves.
func (g *Gateway) Stats() Stats {
	members := g.MemberStatsSnapshot()
	g.mu.Lock()
	gs := GatewayStats{
		Members:       len(g.members),
		Jobs:          len(g.jobs),
		Forwarded:     uint64(g.met.forwarded.Value()),
		Done:          uint64(g.met.done.Value()),
		Failed:        uint64(g.met.failed.Value()),
		Recovered:     uint64(g.met.recovered.Value()),
		PersistErrors: uint64(g.met.persistErrors.Value()),
		Draining:      g.draining,
	}
	if g.byKey != nil {
		gs.Cache = &service.CacheStats{
			Entries:   len(g.byKey),
			Hits:      uint64(g.met.hit.Value()),
			Misses:    uint64(g.met.miss.Value()),
			Coalesced: uint64(g.met.coalesced.Value()),
		}
	}
	g.mu.Unlock()
	st := g.store.Stats()
	gs.Store = &st
	return Stats{Gateway: gs, Fleet: MergeStats(members), Members: members}
}

// MemberHealth is one member's row in the gateway's /v1/healthz.
type MemberHealth struct {
	Member    string `json:"member"`
	Addr      string `json:"addr"`
	Reachable bool   `json:"reachable"`
	// Status is the member's own health status ("ok", "draining"),
	// empty when unreachable.
	Status  string `json:"status,omitempty"`
	Shards  int    `json:"shards,omitempty"`
	Queued  int    `json:"queued,omitempty"`
	Running int64  `json:"running,omitempty"`
	// UptimeSeconds and Build echo the member's own health telemetry.
	UptimeSeconds float64    `json:"uptime_seconds,omitempty"`
	Build         *obs.Build `json:"build,omitempty"`
	Error         string     `json:"error,omitempty"`
}

// Health is the gateway's /v1/healthz body. Status is "ok" when every
// member accepts work, "degraded" when some members are unreachable or
// draining but at least one accepts (still HTTP 200 — the fleet serves),
// "unavailable" when none does, and "draining" while the gateway
// itself shuts down (both of the latter map to 503).
type Health struct {
	Status string `json:"status"`
	// UptimeSeconds is time since this gateway started; Build
	// identifies the gateway binary. Telemetry, as on a worker.
	UptimeSeconds float64        `json:"uptime_seconds"`
	Build         *obs.Build     `json:"build,omitempty"`
	Members       []MemberHealth `json:"members"`
}

// AggregateHealth probes every member's /v1/healthz and folds the
// results per the Health status rules.
func (g *Gateway) AggregateHealth() Health {
	rows := make([]MemberHealth, len(g.members))
	var wg sync.WaitGroup
	for i, m := range g.members {
		wg.Add(1)
		go func(i int, m *Member) {
			defer wg.Done()
			row := MemberHealth{Member: m.Name, Addr: m.Addr}
			var h service.Health
			if _, err := m.Health(g.ctx, &h); err != nil {
				row.Error = err.Error()
			} else {
				row.Reachable = true
				row.Status = h.Status
				row.Shards = h.Shards
				row.Queued = h.Queued
				row.Running = h.Running
				row.UptimeSeconds = h.UptimeSeconds
				row.Build = h.Build
			}
			rows[i] = row
		}(i, m)
	}
	wg.Wait()
	accepting := 0
	for _, row := range rows {
		if row.Reachable && row.Status == "ok" {
			accepting++
		}
	}
	out := Health{Members: rows, UptimeSeconds: obs.Since(g.started)}
	if b, ok := obs.BuildInfo(); ok {
		out.Build = &b
	}
	switch {
	case g.Draining():
		out.Status = "draining"
	case accepting == len(rows):
		out.Status = "ok"
	case accepting > 0:
		out.Status = "degraded"
	default:
		out.Status = "unavailable"
	}
	return out
}
