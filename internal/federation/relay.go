package federation

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"biochip/internal/stream"
)

// relayDrainBytes bounds what a relay reads past a job's terminal frame
// to reach the end of the member's response, so the connection is
// reused instead of dropped.
const relayDrainBytes = 4 << 10

// mirrorFor lazily starts a job's event relay: the first subscriber
// (SSE client or test) triggers one background goroutine that feeds
// the member's events into a stream.Ring (Ring.Feed), and every
// subscriber — concurrent or late — reads from that mirror ring with
// the full ring contract. Events are ingested verbatim (sequence
// numbers, wall stamps and the member's frame bytes preserved), with
// only the job ID in job.* payloads rewritten into the gateway
// namespace; gap events appear exactly when the member itself reported
// one, never from relay reconnects, which resume from the mirror's
// cursor.
func (g *Gateway) mirrorFor(j *gwJob) *stream.Ring {
	j.mirrorOnce.Do(func() {
		j.mirror = stream.NewRing(stream.DefaultCapacity)
		j.mirror.SetBackfill(func(from, to uint64) []stream.Event {
			return g.rangeFetch(j, from, to)
		})
		g.wg.Add(1)
		go g.relay(j)
	})
	return j.mirror
}

// relay is the per-job replication loop: connect to the member's SSE
// endpoint resuming after the mirror's last sequence number, feed
// frames until the stream ends, reconnect with backoff until the
// job's terminal event has been mirrored. A member restart mid-stream
// is just a reconnect: the durable member re-serves (or
// deterministically re-executes) the job, and the resume cursor
// guarantees no duplicates and no relay-invented gaps.
func (g *Gateway) relay(j *gwJob) {
	defer g.wg.Done()
	defer j.mirror.Close()
	backoff := watchBackoffMin
	for {
		if g.ctx.Err() != nil {
			return
		}
		terminal, err := g.streamOnce(j)
		if terminal {
			return
		}
		if err != nil && errors.Is(err, ErrUnknownJob) {
			// The member lost the job (non-durable restart). The watcher
			// fails the job gateway-side; emit its terminal event so
			// subscribers end instead of hanging. A watcher that saw the
			// gateway close returns without failing the job, so Close
			// must end the wait too.
			select {
			case <-j.done:
			case <-g.ctx.Done():
				return
			}
			g.mu.Lock()
			snap := j.snap
			g.mu.Unlock()
			j.mirror.Feed(stream.Event{
				Seq:  j.mirror.Last() + 1,
				Type: stream.JobFailed,
				Job:  &stream.JobInfo{ID: j.id},
				Err:  snap.Error,
			})
			return
		}
		if !g.sleep(backoff) {
			return
		}
		backoff *= 2
		if backoff > watchBackoffMax {
			backoff = watchBackoffMax
		}
	}
}

// streamOnce runs one SSE connection to the member, feeding the mirror
// until the connection ends. It reports whether the job's terminal
// event was mirrored, and the error that broke the connection, if any.
func (g *Gateway) streamOnce(j *gwJob) (terminal bool, err error) {
	ctx, cancel := context.WithCancel(g.ctx)
	defer cancel()
	resp, err := g.openEvents(ctx, j, j.mirror.Last())
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	rd := stream.NewSSEReader(resp.Body)
	for {
		ev, ok := rd.Next()
		if !ok {
			return false, rd.Err()
		}
		if ev.Type == stream.Shutdown {
			// The member is draining: its stream is about to end; the
			// next connection lands on the restarted (or drained-and-
			// recovered) member.
			return false, nil
		}
		j.mirror.Feed(j.rewrite(ev))
		if ev.Type == stream.JobDone || ev.Type == stream.JobFailed {
			// The member ends the response right after the terminal
			// frame: read to that end, within a small bound, so the
			// connection goes back to the member's idle pool (a failed
			// read only costs the connection). The mirror closes first
			// — a draining member holds the response open until its
			// drain completes.
			j.mirror.Close()
			_, _ = io.CopyN(io.Discard, resp.Body, relayDrainBytes)
			return true, nil
		}
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

// openEvents opens the member SSE stream resuming after the given
// sequence number.
func (g *Gateway) openEvents(ctx context.Context, j *gwJob, after uint64) (*http.Response, error) {
	u := j.member.Addr + "/v1/assays/" + url.PathEscape(j.remoteID) + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(after, 10))
	}
	resp, err := j.member.client.Do(req)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return resp, nil
	case http.StatusNotFound:
		resp.Body.Close()
		return nil, ErrUnknownJob
	default:
		resp.Body.Close()
		return nil, errors.New("federation: events: status " + strconv.Itoa(resp.StatusCode))
	}
}

// rangeFetch recovers events that left the mirror window — the
// backfill behind deep Last-Event-ID resumes — with one bounded SSE
// fetch from the member, which serves its own ring or durable log as
// appropriate. Events are rewritten exactly as the live relay
// rewrites them.
func (g *Gateway) rangeFetch(j *gwJob, from, to uint64) []stream.Event {
	ctx, cancel := context.WithTimeout(g.ctx, rpcTimeout)
	defer cancel()
	resp, err := g.openEvents(ctx, j, from-1)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	rd := stream.NewSSEReader(resp.Body)
	var out []stream.Event
	for {
		ev, ok := rd.Next()
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
// semantics). The relay starts on first subscription. Relayed events
// are served as the member's bytes: each carries Seq, Type, its Job or
// Gap block where the relay decoded one, and its encoding
// (stream.Event.Data), while other payload blocks stay encoded. The
// HTTP handler, the one production reader, writes the encoding as it
// is; an in-process reader that needs the payload decodes Data.
func (g *Gateway) SubscribeEvents(id string, after uint64) (*stream.Sub, bool) {
	g.mu.Lock()
	j, ok := g.jobs[id]
	g.mu.Unlock()
	if !ok {
		return nil, false
	}
	return g.mirrorFor(j).Subscribe(after), true
}
