package federation

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"biochip/internal/assay"
	"biochip/internal/service"
	"biochip/internal/stream"
)

// TestClientRoundTrip checks service.Client against the handler it
// inverts. Every error a Backend's Submit can return goes through
// NewHandler and back through Client.Submit and must come back as an
// error errors.Is or errors.As matches, its detail intact; ErrClosed
// comes back as ErrUnavailable, since both are a 503 without
// Retry-After. Then, on both roles, an unknown job is ErrUnknownJob
// from Job, Wait, Events and Trace; a job's record, stream and listing
// read back; Metrics with observability off is no families and no
// error; and a draining backend's health decodes as not ready.
func TestClientRoundTrip(t *testing.T) {
	ctx := context.Background()
	reqs := assay.Requirements{MinCols: 4096, MinRows: 4096}
	reasons := map[string]string{"die40": "needs 4096 cols, die has 40", "die48": "needs 4096 cols, die has 48"}
	classes := []service.ClassStats{{Profiles: []string{"die40"}, Queued: 5}, {Profiles: []string{"die40", "die48"}, Queued: 3}}
	req := service.SubmitRequest{Seed: 1, Program: testProgram(4)}
	incompatible := &service.IncompatibleError{Program: req.Program.Name, Requirements: reqs, Reasons: reasons}
	// sentinel checks a refusal that reads as the backend's message msg
	// and matches want.
	sentinel := func(want error, msg string) func(*testing.T, error) {
		return func(t *testing.T, err error) {
			if !errors.Is(err, want) || err.Error() != msg {
				t.Errorf("got %q, want %q matching %v", err, msg, want)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		err   error
		check func(*testing.T, error)
	}{
		{"incompatible", incompatible,
			func(t *testing.T, err error) {
				var ie *service.IncompatibleError
				if !errors.As(err, &ie) || ie.Program != req.Program.Name || ie.Error() != incompatible.Error() ||
					ie.Requirements != reqs || !reflect.DeepEqual(ie.Reasons, reasons) {
					t.Errorf("got %#v, want the program's requirements and reasons", err)
				}
			}},
		{"queue full", &service.QueueFullError{Queued: 8, Depth: 8, Classes: classes},
			func(t *testing.T, err error) {
				var qf *service.QueueFullError
				if !errors.As(err, &qf) || !errors.Is(err, service.ErrQueueFull) || qf.Queued != 8 || qf.Depth != 8 ||
					qf.Error() != "service: submission queue full (8/8; backlog die40: 5, die40+die48: 3)" ||
					!reflect.DeepEqual(qf.Classes, classes) || qf.RetryAfter != time.Second {
					t.Errorf("got %#v, want 8/8 queued, the classes and a 1 s Retry-After", err)
				}
			}},
		{"queue full, plain", service.ErrQueueFull,
			func(t *testing.T, err error) {
				var qf *service.QueueFullError
				if !errors.As(err, &qf) || !errors.Is(err, service.ErrQueueFull) || qf.Depth != 0 || qf.RetryAfter != time.Second {
					t.Errorf("got %#v, want an empty backlog and a 1 s Retry-After", err)
				}
			}},
		{"draining", service.ErrDraining, sentinel(service.ErrDraining, service.ErrDraining.Error())},
		{"closed", service.ErrClosed, sentinel(service.ErrUnavailable, service.ErrClosed.Error())},
		{"unavailable", service.ErrUnavailable, sentinel(service.ErrUnavailable, service.ErrUnavailable.Error())},
		{"no members", fmt.Errorf("%w: member w0 down", ErrNoMembers),
			sentinel(service.ErrUnavailable, "federation: no member reachable: member w0 down")},
		{"persist", fmt.Errorf("%w: disk full", service.ErrPersist),
			sentinel(service.ErrPersist, "service: persisting submission: disk full")},
		{"too large", service.ErrTooLarge, sentinel(service.ErrTooLarge, service.ErrTooLarge.Error())},
		{"plain", errors.New("assay: op 0: unknown operation \"boil\""),
			func(t *testing.T, err error) {
				for _, s := range []error{service.ErrUnreachable, service.ErrUnknownJob, service.ErrPersist, service.ErrUnavailable} {
					if errors.Is(err, s) {
						t.Errorf("got %v, which matches %v", err, s)
					}
				}
				if err == nil || err.Error() != `assay: op 0: unknown operation "boil"` {
					t.Errorf("got %v, want the backend's message", err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := serveStub(t, stubBackend{err: tc.err})
			_, err := m.Submit(ctx, req)
			if err == nil || errors.Is(err, service.ErrUnreachable) {
				t.Fatalf("got %v, want a verdict", err)
			}
			tc.check(t, err)
		})
	}

	for _, r := range roles() {
		t.Run(r.name, func(t *testing.T) {
			base, b := r.start(t)
			c := &service.Client{Addr: base}
			unknown := "a-999999"
			if _, err := c.Job(ctx, unknown); !errors.Is(err, service.ErrUnknownJob) {
				t.Errorf("Job: %v", err)
			}
			if _, err := c.Wait(ctx, unknown, time.Second); !errors.Is(err, service.ErrUnknownJob) {
				t.Errorf("Wait: %v", err)
			}
			if _, err := c.Events(ctx, unknown, 0); !errors.Is(err, service.ErrUnknownJob) {
				t.Errorf("Events: %v", err)
			}
			if _, err := c.Trace(ctx, unknown); !errors.Is(err, service.ErrUnknownJob) {
				t.Errorf("Trace: %v", err)
			}
			if fams, err := c.Metrics(ctx); fams != nil || err != nil {
				t.Errorf("Metrics with observability off: %d families, %v", len(fams), err)
			}

			res, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			j, err := c.Wait(ctx, res.ID, 30*time.Second)
			if err != nil || j.ID != res.ID || j.Status != service.StatusDone || len(j.Report) == 0 || j.Member != r.member {
				t.Fatalf("Wait: %v, job %s %s (report %d bytes, member %q)", err, j.ID, j.Status, len(j.Report), j.Member)
			}
			if got, err := c.Job(ctx, res.ID); err != nil || !reflect.DeepEqual(got, j) {
				t.Errorf("Job: %v, record differs from Wait's", err)
			}
			evs, err := c.Events(ctx, res.ID, 1)
			if err != nil {
				t.Fatal(err)
			}
			var last stream.Event
			for ev, ok := evs.Next(); ok; ev, ok = evs.Next() {
				last = ev
			}
			if err := evs.Close(); err != nil || evs.Err() != nil || last.Type != stream.JobDone {
				t.Errorf("Events from #1 ended on %s (%v, %v), want job.done", last.Type, evs.Err(), err)
			}
			if page, err := c.List(ctx, service.ListFilter{Newest: true, Limit: 1}); err != nil ||
				len(page.Jobs) != 1 || page.Jobs[0].ID != res.ID {
				t.Errorf("List: %v, %+v", err, page)
			}

			var h struct{ Status string }
			if ready, err := c.Health(ctx, &h); err != nil || !ready || h.Status != "ok" {
				t.Errorf("Health: ready %v, status %q, %v", ready, h.Status, err)
			}
			b.Drain()
			if ready, err := c.Health(ctx, &h); err != nil || ready || h.Status != "draining" {
				t.Errorf("Health while draining: ready %v, status %q, %v", ready, h.Status, err)
			}
			if _, err := c.Submit(ctx, req); !errors.Is(err, service.ErrDraining) {
				t.Errorf("Submit while draining: %v", err)
			}
		})
	}
}
