package federation

import (
	"context"
	"encoding/json"
	"errors"

	"biochip/internal/service"
	"biochip/internal/stream"
)

// relay is the one follower of a routed job, started by bind and
// recover: it connects to the member's SSE endpoint resuming after the
// mirror's last sequence number, feeds frames into the mirror until
// the stream ends, and reconnects with backoff until the job is
// finished, then appends the job's finish record to the gateway's log
// (endMirror). Events are ingested verbatim (sequence numbers, wall stamps
// and the member's frame bytes preserved), with only the job ID in
// job.* payloads rewritten into the gateway namespace; gap events
// appear exactly when the member itself reported one, never from
// reconnects, which resume from the mirror's cursor. A member restart
// mid-stream is just a reconnect: a member with -data re-serves (or
// deterministically re-executes) the job. A member that no longer
// knows the job — a worker without -data restarted — gets it failed.
func (g *Gateway) relay(j *gwJob) {
	defer g.wg.Done()
	defer j.mirror.Close()
	j.mirror.SetBackfill(func(from, to uint64) []stream.Event {
		return g.rangeFetch(j, from, to)
	})
	backoff := relayBackoffMin
	for {
		if g.ctx.Err() != nil {
			return
		}
		terminal, err := g.streamOnce(j)
		if terminal {
			return
		}
		if errors.Is(err, service.ErrUnknownJob) {
			g.fail(j, "federation: job lost by member restart (member runs without -data)")
			return
		}
		if !g.sleep(backoff) {
			return
		}
		backoff = min(2*backoff, relayBackoffMax)
	}
}

// streamOnce runs one SSE connection to the member, feeding the mirror
// and the job's snapshot until the connection ends. It reports whether
// it finished the job, and the error that broke the connection, if
// any.
func (g *Gateway) streamOnce(j *gwJob) (terminal bool, err error) {
	evs, err := j.member.Events(g.ctx, j.remoteID, j.mirror.Last())
	if err != nil {
		return false, err
	}
	defer evs.Close()
	for {
		ev, ok := evs.Next()
		if !ok {
			return false, evs.Err()
		}
		switch ev.Type {
		case stream.Shutdown:
			// The member is draining: its stream is about to end; the
			// next connection lands on the restarted (or drained-and-
			// recovered) member.
			return false, nil
		case stream.JobStarted:
			g.mu.Lock()
			j.snap.Status = service.StatusRunning
			if ev.Job != nil {
				j.snap.Profile = ev.Job.Profile
			}
			g.mu.Unlock()
		case stream.JobDone, stream.JobFailed:
			// Finish the job from the member's record before the
			// terminal frame reaches subscribers, so a client that read
			// the stream to its end reads a terminal job. The record is
			// fetched while this response is still open: a draining
			// member holds it open until its drain completes, and one
			// without -data that then exits would take the record
			// along. A failed fetch, or a record not yet terminal, ends
			// the connection with the frame unfed, so the reconnect
			// resumes just before it and fetches again.
			rj, err := j.member.Job(g.ctx, j.remoteID)
			if err != nil || (rj.Status != service.StatusDone && rj.Status != service.StatusFailed) {
				return false, err
			}
			g.mu.Lock()
			snap := g.rewriteLocked(j, rj)
			g.finishLocked(j, snap)
			g.mu.Unlock()
			g.endMirror(j, &snap, j.rewrite(ev))
			// The member ends the response right after the terminal
			// frame: read to that end, so the connection is reused.
			_ = evs.Release()
			return true, nil
		}
		j.mirror.Feed(j.rewrite(ev))
	}
}

// rewrite maps one member event into the gateway namespace: a job.*
// event naming the remote job gets the gateway ID and one fresh
// encoding; every other event keeps the member's bytes.
func (j *gwJob) rewrite(ev stream.Event) stream.Event {
	if ev.Job == nil || ev.Job.ID != j.remoteID {
		return ev
	}
	job := *ev.Job
	job.ID = j.id
	ev.Job = &job
	// A decoded event always re-encodes; were it not to, a nil
	// encoding leaves Data to marshal the event when it is served.
	data, _ := json.Marshal(ev)
	return stream.WithEncoding(ev, data)
}

// rangeFetch recovers events the mirror dropped — the range an
// upstream gap or a skipped bad frame moved it past (stream.Ring.Feed)
// — with one bounded SSE fetch from the member, which serves its own
// ring or log as appropriate. Events are rewritten exactly as
// the live relay rewrites them.
func (g *Gateway) rangeFetch(j *gwJob, from, to uint64) []stream.Event {
	ctx, cancel := context.WithTimeout(g.ctx, rpcTimeout)
	defer cancel()
	evs, err := j.member.Events(ctx, j.remoteID, from-1)
	if err != nil {
		return nil
	}
	defer evs.Close()
	var out []stream.Event
	for {
		ev, ok := evs.Next()
		if !ok || ev.Seq > to {
			return out
		}
		if ev.Seq < from || ev.Seq == 0 {
			continue
		}
		out = append(out, j.rewrite(ev))
		if ev.Seq == to {
			return out
		}
	}
}

// SubscribeEvents attaches to a gateway job's mirrored event stream,
// resuming after the given sequence number (service.SubscribeEvents
// semantics). Relayed events are served as the mirror keeps them: each
// is its Seq, its Type and the member's bytes (stream.Event.Data), with
// a rewritten job ID re-encoded. The HTTP handler, the one production
// reader, writes the bytes as they are; an in-process reader that
// needs the payload decodes Data.
func (g *Gateway) SubscribeEvents(id string, after uint64) (*stream.Sub, bool) {
	g.mu.Lock()
	j, ok := g.jobs[id]
	g.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.mirror.Subscribe(after), true
}
