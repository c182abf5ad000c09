package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"biochip/internal/assay"
	"biochip/internal/cache"
	"biochip/internal/obs"
	"biochip/internal/service"
)

// ErrUnknownJob is returned by member calls for a job the member does
// not know — after a non-durable member restart, the canonical "lost
// the job" signal.
var ErrUnknownJob = errors.New("federation: unknown job")

// ErrUnreachable wraps transport-level member failures, so callers can
// distinguish "member down" from "member refused".
var ErrUnreachable = errors.New("federation: member unreachable")

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

// Member is the gateway's client for one worker daemon, speaking the
// worker's public HTTP API. It is deliberately not a service.Backend:
// the gateway is the Backend, and it needs the transport errors a
// Backend's signatures would flatten — ErrUnreachable to price a
// member out, ErrUnknownJob to fail a job its member lost.
type Member struct {
	// Name and Addr come from the members spec.
	Name string
	Addr string
	// Profiles is the member's declared fleet, expanded to full die
	// configs (FleetSpecOf).
	Profiles []service.Profile
	// mats is the cache key material of each profile, indexed like
	// Profiles; NoCache profiles have a zero entry.
	mats []cache.ProfileMaterial

	// client has a transport of its own, so the member's idle pool is
	// memberIdleConns (Gateway.Close closes the idle connections).
	client *http.Client
}

// NewMember builds the client for one spec entry, expanding its
// profile declaration into die configs and cache key material.
func NewMember(spec MemberSpec) (*Member, error) {
	cfg := FleetSpecOf(spec).ServiceConfig()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = memberIdleConns
	tr.MaxIdleConnsPerHost = memberIdleConns
	m := &Member{
		Name:     spec.Name,
		Addr:     spec.Addr,
		Profiles: cfg.Profiles,
		client:   &http.Client{Transport: tr},
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

// Submit forwards one submission to the member, reconstructing the
// worker's typed errors from its wire envelope: 422 →
// *service.IncompatibleError, 429 → *service.QueueFullError (backlog
// included), 503 → service.ErrDraining, 500 → service.ErrPersist, 413
// → service.ErrTooLarge. The program is re-encoded (json.Marshal, which
// writes <, > and & as six-byte escapes), so a body the gateway
// accepted can exceed the member's body bound.
// Transport failures wrap ErrUnreachable. A req.Trace travels in the
// X-Assay-Trace header; the member records it as its root span's
// parent, stitching the federation hop (docs/observability.md).
func (m *Member) Submit(ctx context.Context, req service.SubmitRequest) (service.SubmitResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return service.SubmitResult{}, fmt.Errorf("federation: encoding submission: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, rpcTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, m.Addr+"/v1/assays", bytes.NewReader(body))
	if err != nil {
		return service.SubmitResult{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.Trace != "" {
		hreq.Header.Set("X-Assay-Trace", req.Trace)
	}
	resp, err := m.client.Do(hreq)
	if err != nil {
		return service.SubmitResult{}, fmt.Errorf("%w: %s: %v", ErrUnreachable, m.Name, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusAccepted {
		var res service.SubmitResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return service.SubmitResult{}, fmt.Errorf("%w: %s: decoding accept: %v", ErrUnreachable, m.Name, err)
		}
		return res, nil
	}
	var eb service.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		return service.SubmitResult{}, fmt.Errorf("%w: %s: status %d", ErrUnreachable, m.Name, resp.StatusCode)
	}
	switch resp.StatusCode {
	case http.StatusUnprocessableEntity:
		ie := &service.IncompatibleError{Program: req.Program.Name, Reasons: eb.Profiles}
		if eb.Requirements != nil {
			ie.Requirements = *eb.Requirements
		}
		return service.SubmitResult{}, ie
	case http.StatusTooManyRequests:
		qf := &service.QueueFullError{Depth: eb.QueueDepth, Classes: eb.Backlog}
		if eb.Queued != nil {
			qf.Queued = *eb.Queued
		}
		return service.SubmitResult{}, qf
	case http.StatusServiceUnavailable:
		return service.SubmitResult{}, fmt.Errorf("%w: member %s: %s", service.ErrDraining, m.Name, eb.Error)
	case http.StatusInternalServerError:
		return service.SubmitResult{}, fmt.Errorf("%w: member %s: %s", service.ErrPersist, m.Name, eb.Error)
	case http.StatusRequestEntityTooLarge:
		return service.SubmitResult{}, fmt.Errorf("%w: member %s: %s", service.ErrTooLarge, m.Name, eb.Error)
	default:
		return service.SubmitResult{}, fmt.Errorf("federation: member %s: %s", m.Name, eb.Error)
	}
}

// Job fetches a job snapshot: ErrUnknownJob on 404, ErrUnreachable
// wrapping on transport failure.
func (m *Member) Job(ctx context.Context, id string) (service.Job, error) {
	var j service.Job
	err := m.get(ctx, "/v1/assays/"+url.PathEscape(id), &j)
	return j, err
}

// Stats snapshots the member's /v1/stats.
func (m *Member) Stats(ctx context.Context) (service.Stats, error) {
	var st service.Stats
	err := m.get(ctx, "/v1/stats", &st)
	return st, err
}

// Trace fetches a job's span tree from the member: ErrUnknownJob on
// 404 (unknown job, or the member runs without observability),
// ErrUnreachable wrapping on transport failure.
func (m *Member) Trace(ctx context.Context, id string) (obs.TraceDoc, error) {
	var doc obs.TraceDoc
	err := m.get(ctx, "/v1/assays/"+url.PathEscape(id)+"/trace", &doc)
	return doc, err
}

// Metrics scrapes the member's /v1/metrics exposition. A member
// running without observability (404) yields no families and no error
// — the member is up, it just has nothing to report.
func (m *Member) Metrics(ctx context.Context) ([]obs.MetricFamily, error) {
	var fams []obs.MetricFamily
	if err := m.get(ctx, "/v1/metrics", &fams); err != nil && !errors.Is(err, ErrUnknownJob) {
		return nil, err
	}
	return fams, nil
}

// Health fetches the member's /v1/healthz. The body decodes on both
// 200 and 503 (a draining member still reports itself).
func (m *Member) Health(ctx context.Context) (service.Health, error) {
	var h service.Health
	err := m.get(ctx, "/v1/healthz", &h)
	return h, err
}

// get GETs path from the member within ctx and rpcTimeout and decodes
// the reply into v: Prometheus text into a *[]obs.MetricFamily, JSON
// into anything else. A 200 decodes, as does a 503 into a *service.Health.
// A 404 is ErrUnknownJob: the only 404s a worker serves are unknown
// jobs (and traces) and, on /v1/metrics, disabled observability.
// Transport failures, other statuses and undecodable bodies wrap
// ErrUnreachable.
func (m *Member) get(ctx context.Context, path string, v any) error {
	ctx, cancel := context.WithTimeout(ctx, rpcTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.Addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrUnreachable, m.Name, err)
	}
	defer drainClose(resp.Body)
	_, health := v.(*service.Health)
	switch {
	case resp.StatusCode == http.StatusOK, health && resp.StatusCode == http.StatusServiceUnavailable:
	case resp.StatusCode == http.StatusNotFound:
		return ErrUnknownJob
	default:
		return fmt.Errorf("%w: %s: status %d", ErrUnreachable, m.Name, resp.StatusCode)
	}
	if fams, ok := v.(*[]obs.MetricFamily); ok {
		*fams, err = obs.ParseExposition(resp.Body)
	} else {
		err = json.NewDecoder(resp.Body).Decode(v)
	}
	if err != nil {
		return fmt.Errorf("%w: %s: decoding %s: %v", ErrUnreachable, m.Name, path, err)
	}
	return nil
}

// drainClose reads a member reply to its end before closing it: the
// transport reuses a connection only when its body was read to EOF, and
// a JSON decoder stops at the value's end, short of the chunked
// encoding's terminator. The call's context deadline bounds the read;
// a failed read or close only costs the connection, as the reply was
// already consumed.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
