package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"
)

// replyTransport answers every request with one canned reply.
type replyTransport struct {
	code       int
	retryAfter string
	body       []byte
}

func (t replyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := http.Header{}
	if t.retryAfter != "" {
		h.Set("Retry-After", t.retryAfter)
	}
	return &http.Response{StatusCode: t.code, Header: h, Body: io.NopCloser(bytes.NewReader(t.body)), Request: req}, nil
}

// clientReplyStatuses are the statuses the handler answers, plus one it
// never does.
var clientReplyStatuses = []int{
	http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusNotFound,
	http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity, http.StatusTooManyRequests,
	http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusTeapot,
}

// FuzzClientReply feeds Client.Submit and Client.Job arbitrary replies,
// as a gateway reads every member's: a status (the handler's, or one
// it never answers), a Retry-After header and a body. Neither may
// panic. A 429 is always a *QueueFullError that unwraps to ErrQueueFull
// and never renders a negative fill. A success status whose body does
// not decode, or a status the call does not expect, is ErrUnreachable.
// Every other refusal is the error its status maps to.
func FuzzClientReply(f *testing.F) {
	// TestParseQueueFullDegrades' nine 429 bodies (cmd/assayctl).
	for _, body := range []string{
		`{"error":"queue full","queued":16,"queue_depth":16,"backlog":[{"profiles":["die40"],"queued":12},{"profiles":["die40","die48"],"queued":4}]}`,
		`{"error":"queue full","queued":3,"queue_depth":8}`,
		`{}`,
		``,
		`{"error":"queue full","queued":16,"queue_de`,
		`{"queued":"sixteen","backlog":"nope"}`,
		`{"queued":-2,"queue_depth":8}`,
		`<html>502 Bad Gateway</html>`,
		`{"queued":5,"queue_depth":8,"backlog":[{"queued":5}]}`,
	} {
		f.Add(uint8(6), "1", []byte(body))
	}
	f.Fuzz(func(t *testing.T, status uint8, retryAfter string, body []byte) {
		code := clientReplyStatuses[int(status)%len(clientReplyStatuses)]
		c := &Client{Addr: "http://daemon", HTTP: &http.Client{Transport: replyTransport{code, retryAfter, body}}}
		_, subErr := c.Submit(context.Background(), SubmitRequest{Seed: 1})
		_, jobErr := c.Job(context.Background(), "a-000001")
		decodes := func(v any) bool { return json.NewDecoder(bytes.NewReader(body)).Decode(v) == nil }
		for _, call := range []struct {
			name string
			err  error
			ok   int
			v    any
		}{
			{"Submit", subErr, http.StatusAccepted, new(SubmitResult)},
			{"Job", jobErr, http.StatusOK, new(Job)},
		} {
			err := call.err
			var want error // the sentinel err must match; nil for none
			switch code {
			case call.ok:
				if decodes(call.v) {
					if err != nil {
						t.Fatalf("%s: %d with a decodable body: %v", call.name, code, err)
					}
					continue
				}
				want = ErrUnreachable
			case http.StatusOK, http.StatusAccepted, http.StatusTeapot:
				want = ErrUnreachable
			case http.StatusBadRequest:
				for _, s := range []error{ErrUnreachable, ErrUnknownJob, ErrTooLarge, ErrQueueFull, ErrPersist, ErrDraining, ErrUnavailable} {
					if errors.Is(err, s) {
						t.Fatalf("%s: 400 is %v, which matches %v", call.name, err, s)
					}
				}
				var ie *IncompatibleError
				if err == nil || errors.As(err, &ie) {
					t.Fatalf("%s: 400 is %v, want a plain error", call.name, err)
				}
				continue
			case http.StatusNotFound:
				want = ErrUnknownJob
			case http.StatusRequestEntityTooLarge:
				want = ErrTooLarge
			case http.StatusUnprocessableEntity:
				var ie *IncompatibleError
				if !errors.As(err, &ie) {
					t.Fatalf("%s: 422 is %v, want an *IncompatibleError", call.name, err)
				}
				continue
			case http.StatusTooManyRequests:
				var qf *QueueFullError
				if !errors.As(err, &qf) || !errors.Is(err, ErrQueueFull) {
					t.Fatalf("%s: 429 is %v, want a *QueueFullError", call.name, err)
				}
				negative := qf.Queued < 0 || qf.Depth < 0 || qf.RetryAfter < 0
				for _, cls := range qf.Classes {
					negative = negative || cls.Queued < 0
				}
				if negative {
					t.Fatalf("%s: 429 renders a negative fill: %q (Retry-After %v)", call.name, qf.Error(), qf.RetryAfter)
				}
				continue
			case http.StatusInternalServerError:
				want = ErrPersist
			case http.StatusServiceUnavailable:
				want = ErrUnavailable
				if retryAfter != "" {
					want = ErrDraining
				}
			}
			if !errors.Is(err, want) {
				t.Fatalf("%s: %d is %v, want %v", call.name, code, err, want)
			}
		}
	})
}
