package federation

import (
	"fmt"
	"net/http"
	"time"

	"biochip/internal/assay"
	"biochip/internal/cache"
	"biochip/internal/service"
)

// rpcTimeout bounds plain request/response member calls within the
// caller's context (the gateway's, which Close cancels); a relay's SSE
// stream lasts until its job ends or the gateway closes.
const rpcTimeout = 10 * time.Second

// memberIdleConns is the idle-connection pool of each member's
// transport. A connection that finds the pool full when its call ends
// is closed, and the next call dials afresh. The gateway holds open,
// per member, a relay stream per in-flight job (and, at its terminal
// frame, that job's record fetch), plus forwards and the stats poller.
// The size is the peak measured on the gateway-scan benchmark (two
// closed-loop clients, so at most two jobs in flight, through a gateway
// over two single-shard members; 10 s runs) when each in-flight job
// also held a long-poll on its member: a ConnState count on the members
// saw at most 6 connections open to each at once. With the default
// transport's 2 idle connections per host, each member took 650–740
// new connections a run (about 1,000 jobs each); with this pool, 6.
const memberIdleConns = 6

// Member is the gateway's client for one worker daemon: a
// service.Client plus the profiles the members spec declares. It is
// deliberately not a service.Backend: the gateway is the Backend, and
// it needs the errors a Backend's signatures would flatten —
// service.ErrUnreachable to price a member out, service.ErrUnknownJob
// to fail a job its member lost.
type Member struct {
	// Client calls the member, each call but a stream within rpcTimeout.
	*service.Client
	// Name comes from the members spec, as does Client.Addr.
	Name string
	// Profiles is the member's declared fleet, expanded to full die
	// configs (FleetSpecOf).
	Profiles []service.Profile
	// mats is the cache key material of each profile, indexed like
	// Profiles; NoCache profiles have a zero entry.
	mats []cache.ProfileMaterial

	// client is the Client's, with a transport of its own, so the
	// member's idle pool is memberIdleConns (closed by Gateway.Close).
	client *http.Client
}

// NewMember builds the client for one spec entry, expanding its
// profile declaration into die configs and cache key material.
func NewMember(spec MemberSpec) (*Member, error) {
	cfg := FleetSpecOf(spec).ServiceConfig()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = memberIdleConns
	tr.MaxIdleConnsPerHost = memberIdleConns
	hc := &http.Client{Transport: tr}
	m := &Member{
		Client:   &service.Client{Addr: spec.Addr, HTTP: hc, Timeout: rpcTimeout},
		Name:     spec.Name,
		Profiles: cfg.Profiles,
		client:   hc,
	}
	for _, p := range cfg.Profiles {
		if p.NoCache {
			m.mats = append(m.mats, cache.ProfileMaterial{})
			continue
		}
		raw, err := cache.ConfigJSON(p.Chip)
		if err != nil {
			return nil, fmt.Errorf("federation: member %q: %w", spec.Name, err)
		}
		m.mats = append(m.mats, cache.ProfileMaterial{Name: p.Name, Config: raw})
	}
	return m, nil
}

// Eligible returns the positions in Profiles of the member profiles
// that can run the program — the member's own placement rule
// (service.Profile.Check), run gateway-side against the declared fleet
// — plus per-profile rejection reasons for the 422 path.
func (m *Member) Eligible(pr assay.Program) ([]int, map[string]string) {
	reqs := pr.EffectiveRequirements()
	var eligible []int
	reasons := make(map[string]string, len(m.Profiles))
	for i, p := range m.Profiles {
		if err := p.Check(pr, reqs); err != nil {
			reasons[p.Name] = err.Error()
			continue
		}
		eligible = append(eligible, i)
	}
	return eligible, reasons
}
