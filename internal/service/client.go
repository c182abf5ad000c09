package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"biochip/internal/obs"
	"biochip/internal/stream"
)

// ErrUnknownJob reports a job ID the daemon does not know (404): how a
// gateway learns that a member without -data restarted and lost a job.
var ErrUnknownJob = errors.New("service: unknown job")

// ErrUnreachable marks a Client call that got no verdict: the transport
// failed, the reply did not decode, or the handler never answers its
// status. The daemon may or may not have acted on the request.
var ErrUnreachable = errors.New("service: daemon unreachable")

// eventDrainBytes bounds what EventStream.Release reads past a terminal
// frame to reach the end of the response and reuse its connection.
const eventDrainBytes = 4 << 10

// maxReplyBuffer caps the buffer call sizes from a reply's
// Content-Length, a header the daemon chooses (for a gateway, a
// member); a longer reply decodes as a stream.
const maxReplyBuffer = 4 << 20

// Client calls a daemon's HTTP API, a worker's or a gateway's alike: it
// is the inverse of NewHandler. A success decodes into the method's
// result, and a refusal maps back to the error the handler mapped to
// its status:
//
//	400  a plain error
//	404  ErrUnknownJob
//	413  ErrTooLarge
//	422  *IncompatibleError
//	429  *QueueFullError, with the Retry-After hint
//	500  ErrPersist
//	503  ErrDraining with Retry-After, ErrUnavailable without
//
// A refusal reads as the daemon's message; ErrClosed, a 503 without
// Retry-After too, comes back as ErrUnavailable. Anything else wraps
// ErrUnreachable. Every reply is read to its end, so its connection is
// reused.
type Client struct {
	// Addr is the daemon's base URL ("http://host:port").
	Addr string
	// HTTP sends the requests; nil means http.DefaultClient.
	HTTP *http.Client
	// Timeout, when positive, bounds each call but Events within its
	// context, a Wait's long-poll included.
	Timeout time.Duration
}

// Submit posts one submission (POST /v1/assays), the program as
// json.Marshal encodes it and req.Trace in the X-Assay-Trace header.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (res SubmitResult, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return res, fmt.Errorf("service: encoding submission: %w", err)
	}
	_, err = c.call(ctx, http.MethodPost, "/v1/assays", bytes.NewReader(body), func(h http.Header) {
		h.Set("Content-Type", "application/json")
		if req.Trace != "" {
			h.Set("X-Assay-Trace", req.Trace)
		}
	}, &res, http.StatusAccepted)
	if ie, ok := err.(*IncompatibleError); ok { // refusal returns it unwrapped
		ie.Program = req.Program.Name
	}
	return res, err
}

// Job fetches a job's record (GET /v1/assays/{id}).
func (c *Client) Job(ctx context.Context, id string) (j Job, err error) {
	_, err = c.get(ctx, jobPath(id), &j)
	return j, err
}

// Wait long-polls a job (GET /v1/assays/{id}?wait=1): the daemon holds
// the request until the job is terminal or the window closes, and
// answers the record at that moment. A positive window is sent as
// ?timeout=; zero leaves the daemon's default, 25 s.
func (c *Client) Wait(ctx context.Context, id string, window time.Duration) (j Job, err error) {
	q := url.Values{"wait": {"1"}}
	if window > 0 {
		q.Set("timeout", strconv.FormatFloat(window.Seconds(), 'f', -1, 64))
	}
	_, err = c.get(ctx, jobPath(id)+"?"+q.Encode(), &j)
	return j, err
}

// List fetches one page of the job listing (GET /v1/assays), the
// filter sent as its query.
func (c *Client) List(ctx context.Context, f ListFilter) (page ListPage, err error) {
	q := url.Values{}
	if f.Status != "" {
		q.Set("status", string(f.Status))
	}
	if f.Limit > 0 {
		q.Set("limit", strconv.Itoa(f.Limit))
	}
	if f.After != "" {
		q.Set("after", f.After)
	}
	if f.Newest {
		q.Set("order", "desc")
	}
	path := "/v1/assays"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	_, err = c.get(ctx, path, &page)
	return page, err
}

// Trace fetches a job's span tree (GET /v1/assays/{id}/trace);
// ErrUnknownJob also means the daemon runs without observability.
func (c *Client) Trace(ctx context.Context, id string) (doc obs.TraceDoc, err error) {
	_, err = c.get(ctx, jobPath(id)+"/trace", &doc)
	return doc, err
}

// Metrics scrapes the daemon's Prometheus exposition (GET /v1/metrics);
// a daemon without observability (404) yields no families and no error.
func (c *Client) Metrics(ctx context.Context) (fams []obs.MetricFamily, err error) {
	if _, err = c.get(ctx, "/v1/metrics", &fams); errors.Is(err, ErrUnknownJob) {
		return nil, nil
	}
	return fams, err
}

// Stats decodes the daemon's GET /v1/stats body into v (a *Stats from
// a worker, the gateway's type from a gateway).
func (c *Client) Stats(ctx context.Context, v any) error {
	_, err := c.get(ctx, "/v1/stats", v)
	return err
}

// Health decodes the daemon's GET /v1/healthz body into v, as Stats
// does, on 200 (ready) and on 503 (not ready, e.g. draining) alike.
func (c *Client) Health(ctx context.Context, v any) (ready bool, err error) {
	code, err := c.get(ctx, "/v1/healthz", v, http.StatusOK, http.StatusServiceUnavailable)
	return code == http.StatusOK, err
}

// Events opens a job's event stream (GET /v1/assays/{id}/events) after
// sequence number after, sent as Last-Event-ID. Only ctx bounds it.
func (c *Client) Events(ctx context.Context, id string, after uint64) (*EventStream, error) {
	resp, err := c.open(ctx, http.MethodGet, jobPath(id)+"/events", nil, func(h http.Header) {
		h.Set("Accept", "text/event-stream")
		if after > 0 {
			h.Set("Last-Event-ID", strconv.FormatUint(after, 10))
		}
	})
	if err != nil {
		return nil, err
	}
	return &EventStream{SSEReader: stream.NewSSEReader(resp.Body), body: resp.Body}, nil
}

// EventStream is an open event stream (Client.Events), read with its
// stream.SSEReader.
type EventStream struct {
	*stream.SSEReader
	body io.ReadCloser
}

// Close closes the stream, and with it the connection unless the
// response was read to its end.
func (s *EventStream) Close() error { return s.body.Close() }

// Release reads the rest of the response, within eventDrainBytes, and
// closes the stream. The daemon ends the response right after a job's
// terminal frame, so a stream released then keeps its connection for
// reuse; a draining daemon holds the response open until its drain
// completes.
func (s *EventStream) Release() error {
	_, _ = io.CopyN(io.Discard, s.body, eventDrainBytes)
	return s.body.Close()
}

// jobPath is a job's path, its ID escaped into one segment.
func jobPath(id string) string { return "/v1/assays/" + url.PathEscape(id) }

// get GETs path as call does.
func (c *Client) get(ctx context.Context, path string, v any, ok ...int) (int, error) {
	return c.call(ctx, http.MethodGet, path, nil, nil, v, ok...)
}

// call sends one request within c.Timeout and returns the status of
// a reply in ok (as open), decoded into v: Prometheus text into a
// *[]obs.MetricFamily, JSON into anything else. A JSON reply of known
// length is read into one buffer of that length, so a job record's
// report is copied out of it once rather than out of a decoder buffer
// that regrows as it reads.
func (c *Client) call(ctx context.Context, method, path string, body io.Reader, header func(http.Header), v any, ok ...int) (int, error) {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	resp, err := c.open(ctx, method, path, body, header, ok...)
	if err != nil {
		return 0, err
	}
	defer closeReply(resp.Body)
	if fams, isFams := v.(*[]obs.MetricFamily); isFams {
		*fams, err = obs.ParseExposition(resp.Body)
	} else if n := resp.ContentLength; n > 0 && n <= maxReplyBuffer {
		buf := make([]byte, n)
		if _, err = io.ReadFull(resp.Body, buf); err == nil {
			err = json.Unmarshal(buf, v)
		}
	} else {
		err = json.NewDecoder(resp.Body).Decode(v)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: decoding %s %s: %v", ErrUnreachable, method, path, err)
	}
	return resp.StatusCode, nil
}

// open sends one request, its headers set by header (when not nil),
// and returns the reply when its status is in ok (200 when ok is
// empty). Any other reply maps to its error (refusal); a transport
// failure wraps ErrUnreachable.
func (c *Client) open(ctx context.Context, method, path string, body io.Reader, header func(http.Header), ok ...int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Addr+path, body)
	if err != nil {
		return nil, fmt.Errorf("service: %s %s: %w", method, path, err)
	}
	if header != nil {
		header(req.Header)
	}
	resp, err := cmp.Or(c.HTTP, http.DefaultClient).Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	if len(ok) == 0 {
		ok = []int{http.StatusOK}
	}
	if !slices.Contains(ok, resp.StatusCode) {
		defer closeReply(resp.Body)
		return nil, refusal(resp)
	}
	return resp, nil
}

// refusal maps a reply back to the error the handler answered with its
// status; the envelope adds detail. An envelope that does not decode
// keeps only its message, so a mangled 429 is an empty backlog.
func refusal(resp *http.Response) error {
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		eb = ErrorBody{Error: eb.Error}
	}
	var err error
	switch resp.StatusCode {
	case http.StatusBadRequest:
		return errors.New(cmp.Or(eb.Error, "service: bad request"))
	case http.StatusUnprocessableEntity:
		ie := &IncompatibleError{Reasons: eb.Profiles}
		if eb.Requirements != nil {
			ie.Requirements = *eb.Requirements
		}
		return ie
	case http.StatusTooManyRequests:
		return queueFull(eb, retryHint(resp.Header))
	case http.StatusNotFound:
		err = ErrUnknownJob
	case http.StatusRequestEntityTooLarge:
		err = ErrTooLarge
	case http.StatusInternalServerError:
		err = ErrPersist
	case http.StatusServiceUnavailable:
		err = ErrUnavailable
		if resp.Header.Get("Retry-After") != "" {
			err = ErrDraining
		}
	default:
		return fmt.Errorf("%w: status %d", ErrUnreachable, resp.StatusCode)
	}
	if eb.Error == "" {
		return err
	}
	return &refusedError{err: err, msg: eb.Error}
}

// refusedError matches err and reads as the daemon's message.
type refusedError struct {
	err error
	msg string
}

func (e *refusedError) Error() string { return e.msg }
func (e *refusedError) Unwrap() error { return e.err }

// queueFull rebuilds a 429's QueueFullError; a negative count leaves
// the backlog empty.
func queueFull(eb ErrorBody, hint time.Duration) *QueueFullError {
	qf := &QueueFullError{Depth: eb.QueueDepth, Classes: eb.Backlog, RetryAfter: hint}
	if eb.Queued != nil {
		qf.Queued = *eb.Queued
	}
	if qf.Queued < 0 || qf.Depth < 0 || slices.ContainsFunc(qf.Classes, func(c ClassStats) bool { return c.Queued < 0 }) {
		return &QueueFullError{RetryAfter: hint}
	}
	return qf
}

// retryHint reads a reply's Retry-After seconds. A reply without a
// usable hint gets the one the handler always sends.
func retryHint(h http.Header) time.Duration {
	secs, err := strconv.ParseInt(h.Get("Retry-After"), 10, 64)
	if err != nil || secs < 0 || secs > math.MaxInt64/int64(time.Second) {
		return retryAfterSeconds * time.Second
	}
	return time.Duration(secs) * time.Second
}

// closeReply reads a reply to its end, which a JSON decoder stops
// short of, before closing it: the transport reuses a connection only
// after EOF. A failed read only costs the connection.
func closeReply(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
