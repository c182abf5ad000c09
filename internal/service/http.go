package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"biochip/internal/assay"
	"biochip/internal/obs"
	"biochip/internal/stream"
)

// retryAfterSeconds is the backoff hint sent with every 429: the queue
// drains at job-execution speed, so a short fixed hint beats the
// clients' guess without tracking per-job runtimes.
const retryAfterSeconds = 1

// maxSubmitBytes bounds a POST /v1/assays body; a longer one gets 413.
// Programs are small (docs/examples/isolate.json is 316 bytes), so the
// bound only stops a client making the daemon buffer without limit.
const maxSubmitBytes = 1 << 20

// Long-poll bounds for GET /v1/assays/{id}?wait=1: the server holds the
// request until the job finishes or the timeout elapses, whichever is
// first. Clients may lower/raise the default with ?timeout=SECONDS up
// to the cap.
const (
	defaultLongPoll = 25 * time.Second
	maxLongPoll     = 60 * time.Second
)

// SubmitRequest is the POST /v1/assays body: a seed plus a program in
// the assay JSON wire format (docs/assay-format.md).
type SubmitRequest struct {
	Seed    uint64        `json:"seed"`
	Program assay.Program `json:"program"`
	// Trace is the forwarding gateway's span reference, carried in the
	// X-Assay-Trace header rather than the body: the job's root span
	// records it as its foreign parent, so a gateway trace fetch can
	// stitch the cross-hop tree together (docs/observability.md).
	// Local callers leave it empty.
	Trace string `json:"-"`
}

// ErrorBody is the JSON error envelope of every endpoint, on a worker
// and a gateway alike. For 422 (no compatible profile) it also carries
// the requirements placement used and the per-profile rejection
// reasons; for 429 (queue full) the queue fill, bound and per-class
// backlog, so clients can tell genuine saturation from load the cache
// would absorb.
type ErrorBody struct {
	Error        string              `json:"error"`
	Requirements *assay.Requirements `json:"requirements,omitempty"`
	Profiles     map[string]string   `json:"profiles,omitempty"`
	Queued       *int                `json:"queued,omitempty"`
	QueueDepth   int                 `json:"queue_depth,omitempty"`
	Backlog      []ClassStats        `json:"backlog,omitempty"`
}

// Handler exposes the service over HTTP (NewHandler).
func (s *Service) Handler() http.Handler { return NewHandler(s, s.met.sse) }

// handler serves the HTTP API over one Backend; sse gauges its open
// event-stream subscriptions.
type handler struct {
	b   Backend
	sse *obs.GaugeVec
}

// NewHandler exposes a Backend over HTTP:
//
//	POST /v1/assays             submit a SubmitRequest, returns 202 + SubmitResult
//	GET  /v1/assays             job listing; ?status= &limit= &after= &order=desc
//	GET  /v1/assays/{id}        job status, with the report once done;
//	                            ?wait=1 long-polls until done or ?timeout=SECONDS
//	GET  /v1/assays/{id}/events Server-Sent-Events stream of the job's
//	                            progress events; Last-Event-ID (or
//	                            ?after=SEQ) resumes without gaps or
//	                            duplicates (docs/streaming.md)
//	GET  /v1/assays/{id}/trace  the job's span tree
//	GET  /v1/stats              the backend's StatsBody
//	GET  /v1/metrics            Prometheus text exposition
//	GET  /v1/healthz            the backend's HealthBody
//
// A full queue maps to 429 with a Retry-After header, a program no
// profile can run to 422, an unknown job to 404, a draining, closed or
// unavailable backend to 503 (draining adds Retry-After), a malformed
// program to 400 and a submission body over 1 MiB to 413. sse is the
// gauge of open event streams. Client is the inverse: it maps each of
// these statuses back to the error it was mapped from.
func NewHandler(b Backend, sse *obs.GaugeVec) http.Handler {
	h := &handler{b: b, sse: sse}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/assays", h.handleSubmit)
	mux.HandleFunc("GET /v1/assays", h.handleList)
	mux.HandleFunc("GET /v1/assays/{id}", h.handleGet)
	mux.HandleFunc("GET /v1/assays/{id}/events", h.handleEvents)
	mux.HandleFunc("GET /v1/assays/{id}/trace", h.handleTrace)
	mux.HandleFunc("GET /v1/stats", h.handleStats)
	mux.HandleFunc("GET /v1/metrics", h.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", h.handleHealthz)
	return mux
}

func (h *handler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, ErrorBody{Error: err.Error()})
		return
	}
	// A forwarding gateway stitches its span tree to ours through the
	// X-Assay-Trace header (docs/observability.md).
	req.Trace = r.Header.Get("X-Assay-Trace")
	res, err := h.b.Submit(req)
	var incompatible *IncompatibleError
	var full *QueueFullError
	switch {
	case errors.As(err, &incompatible):
		writeJSON(w, http.StatusUnprocessableEntity, ErrorBody{
			Error:        incompatible.Error(),
			Requirements: &incompatible.Requirements,
			Profiles:     incompatible.Reasons,
		})
	case errors.As(err, &full):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusTooManyRequests, ErrorBody{
			Error:      full.Error(),
			Queued:     &full.Queued,
			QueueDepth: full.Depth,
			Backlog:    full.Classes,
		})
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusTooManyRequests, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		// Draining is transient from a fleet's point of view: a load
		// balancer should retry against a sibling, so advertise backoff.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrClosed), errors.Is(err, ErrUnavailable):
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrPersist):
		// The WAL append failed: the submission was refused before any
		// ack, so the client may safely retry once the store recovers.
		writeJSON(w, http.StatusInternalServerError, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrTooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, ErrorBody{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, res)
	}
}

func (h *handler) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	// Long-polling is opt-in: only wait=1/wait=true hold the request, so
	// wait=0 and other spellings stay instant status checks.
	if wait := q.Get("wait"); wait != "1" && wait != "true" {
		j, ok := h.b.Get(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, ErrorBody{Error: "unknown job"})
			return
		}
		writeJob(w, j)
		return
	}
	timeout, ok := longPollTimeout(q.Get("timeout"))
	if !ok {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "invalid timeout"})
		return
	}
	// Long-poll: hold the request until the job is done or the window
	// closes; either way the reply is the job snapshot, so clients just
	// re-poll while non-terminal.
	j, _, err := h.b.WaitTimeout(id, timeout)
	if err != nil {
		writeJSON(w, http.StatusNotFound, ErrorBody{Error: "unknown job"})
		return
	}
	writeJob(w, j)
}

// longPollTimeout parses ?timeout=SECONDS: empty selects the default
// window; negative and non-finite values are invalid; anything past the
// cap clamps to it before the conversion to a Duration, so huge values
// cannot overflow into a negative one. Zero returns the current
// snapshot at once.
func longPollTimeout(raw string) (time.Duration, bool) {
	if raw == "" {
		return defaultLongPoll, true
	}
	secs, err := strconv.ParseFloat(raw, 64)
	if err != nil || secs < 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
		return 0, false
	}
	return time.Duration(min(secs, maxLongPoll.Seconds()) * float64(time.Second)), true
}

func (h *handler) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.b.StatsBody())
}

// handleList serves GET /v1/assays: a paged job listing for operators
// and for `assayctl list` / `assayctl watch latest`.
func (h *handler) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := ListFilter{
		Status: Status(q.Get("status")),
		After:  q.Get("after"),
		Newest: q.Get("order") == "desc",
	}
	switch f.Status {
	case "", StatusQueued, StatusRunning, StatusDone, StatusFailed:
	default:
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "invalid status filter"})
		return
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "invalid limit"})
			return
		}
		f.Limit = n
	}
	if order := q.Get("order"); order != "" && order != "asc" && order != "desc" {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "invalid order"})
		return
	}
	writeJSON(w, http.StatusOK, h.b.List(f))
}

// Health is a worker's GET /v1/healthz body.
type Health struct {
	// Status is "ok" while admitting, "draining" during shutdown.
	Status  string `json:"status"`
	Shards  int    `json:"shards"`
	Queued  int    `json:"queued"`
	Running int64  `json:"running"`
	// UptimeSeconds is time since the daemon built its fleet; Build
	// identifies the binary (runtime/debug.ReadBuildInfo). Both are
	// telemetry outside the determinism contract.
	UptimeSeconds float64    `json:"uptime_seconds"`
	Build         *obs.Build `json:"build,omitempty"`
}

// HealthBody reports liveness and the draining state: ready while the
// service admits work, not once it drains — the readiness flip load
// balancers key off during a rolling restart.
func (s *Service) HealthBody() (any, bool) {
	st := s.Stats()
	h := Health{
		Status:        "ok",
		Shards:        st.Shards,
		Queued:        st.Queued,
		Running:       st.Running,
		UptimeSeconds: st.UptimeSeconds,
	}
	if b, ok := obs.BuildInfo(); ok {
		h.Build = &b
	}
	if st.Draining {
		h.Status = "draining"
	}
	return h, !st.Draining
}

// StatsBody is the worker's /v1/stats body: Stats.
func (s *Service) StatsBody() any { return s.Stats() }

func (h *handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body, ready := h.b.HealthBody()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// handleMetrics serves GET /v1/metrics as Prometheus text exposition.
// 404 when observability is disabled, so scrapers fail loudly instead
// of graphing an empty daemon.
func (h *handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fams, ok := h.b.Metrics()
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorBody{Error: "observability disabled"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteExposition(w, fams)
}

// handleTrace serves GET /v1/assays/{id}/trace: the job's span tree.
func (h *handler) handleTrace(w http.ResponseWriter, r *http.Request) {
	doc, ok := h.b.Trace(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorBody{Error: "no trace for job"})
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleEvents serves GET /v1/assays/{id}/events: the job's progress
// stream as Server-Sent-Events. Each event frame carries the sequence
// number as the SSE id, the event type as the SSE event name and the
// stream.Event JSON as data, so a reconnecting client that sends the
// standard Last-Event-ID header (or ?after=SEQ) resumes exactly where
// it stopped — no gaps, no duplicates (a synthetic gap event reports a
// range no backfill could recover). Frames are flushed once per burst:
// only when the subscriber has nothing more to read without waiting, so
// a replayed stream leaves in as few writes as its bytes fill and a
// live frame leaves at once. The stream ends after the job's terminal
// event; when the backend drains for shutdown, open subscribers receive
// a final shutdown event instead of a silent hangup.
func (h *handler) handleEvents(w http.ResponseWriter, r *http.Request) {
	after := uint64(0)
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "invalid resume sequence"})
			return
		}
		after = n
	}
	sub, ok := h.b.SubscribeEvents(r.PathValue("id"), after)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorBody{Error: "unknown job"})
		return
	}
	defer sub.Cancel()
	h.sse.With().Add(1)
	defer h.sse.With().Add(-1)
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, ErrorBody{Error: "streaming unsupported"})
		return
	}
	hdr := w.Header()
	hdr.Set("Content-Type", "text/event-stream")
	hdr.Set("Cache-Control", "no-cache")
	hdr.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// stop fires when the client hangs up or the backend finishes
	// draining; the watcher goroutine ends with the request context.
	drained := h.b.Drained()
	stop := make(chan struct{})
	go func() {
		select {
		case <-r.Context().Done():
		case <-drained:
		}
		close(stop)
	}()
	for {
		ev, ok := sub.Next(stop)
		if !ok {
			break
		}
		stream.WriteSSE(w, ev)
		if !sub.Ready() {
			fl.Flush()
		}
	}
	// Terminal shutdown event: a stream that ends while the backend is
	// draining tells the subscriber the server is going away instead of
	// silently hanging up. The wait is bounded — a drain in progress
	// always completes, since every admitted job runs to termination.
	if h.b.Draining() && r.Context().Err() == nil {
		fl.Flush()
		select {
		case <-drained:
			stream.WriteSSE(w, stream.Event{Type: stream.Shutdown})
			fl.Flush()
		case <-r.Context().Done():
		}
	}
}

// writeJob writes a job record with the bytes writeJSON would write,
// but copies the report's bytes in where encoding/json puts the field,
// just before member: encoding/json re-compacts every RawMessage it
// writes, which costs more than encoding the typed report did. The
// body is one buffer, so it goes out with its Content-Length, and a
// Client reads it into one buffer too.
func writeJob(w http.ResponseWriter, j Job) {
	if len(j.Report) == 0 {
		writeJSON(w, http.StatusOK, j)
		return
	}
	report, member := j.Report, j.Member
	j.Report, j.Member = nil, ""
	head, err := json.Marshal(j)
	if err != nil {
		return
	}
	buf := make([]byte, 0, len(head)+len(report)+len(member)+24)
	buf = append(buf, head[:len(head)-1]...) // drop the closing brace
	buf = append(buf, `,"report":`...)
	buf = append(buf, report...)
	if member != "" {
		name, err := json.Marshal(member)
		if err != nil {
			return
		}
		buf = append(buf, `,"member":`...)
		buf = append(buf, name...)
	}
	buf = append(buf, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	// As in writeJSON, a failed write means the client hung up.
	_, _ = w.Write(buf)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encoding these in-memory types cannot fail; ignore the write error
	// (the client hung up).
	_ = json.NewEncoder(w).Encode(v)
}
