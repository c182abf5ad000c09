package stream

import (
	"encoding/json"
	"math"
	"sync"
	"time"
)

// Ring is the replayable event buffer of one job. Publish assigns
// monotonic sequence numbers and never blocks, and the ring keeps every
// event it is given until Offload hands the stream to a backfill, so a
// subscriber, however slow, reads every event. Subscribers attach at
// any time (Subscribe) and replay the stream from any resume point —
// the engine behind SSE Last-Event-ID reconnects. A relay fills a ring
// with Feed, not Publish.
type Ring struct {
	mu sync.Mutex
	// buf holds the retained events first..next-1 in order: buf[i] is
	// event first+i. It grows by append from 8 slots, so a ring holds at
	// most max(2n, 8) slots for the n events it stored.
	buf []Event
	// first is the oldest retained sequence number; next is the next
	// to assign. Both start at 1 (empty ring: first == next).
	first, next uint64
	closed      bool
	subs        map[*Sub]struct{}
	// now stamps Event.Wall; tests may zero-stamp by replacing it.
	now func() float64
	// backfill, when set, recovers events the ring no longer retains:
	// it returns the retained subsequence of [from, to] in ascending
	// seq order. Subscribers only see a gap for sequence numbers the
	// backfill cannot produce — data that is truly unrecoverable.
	backfill func(from, to uint64) []Event
}

// NewRing builds an empty ring.
func NewRing() *Ring {
	return &Ring{
		first: 1,
		next:  1,
		subs:  make(map[*Sub]struct{}),
		//detlint:allow walltime — THE sanctioned wall stamp: Event.Wall is telemetry, explicitly excluded from the determinism contract (tests zero it)
		now: func() float64 { return float64(time.Now().UnixNano()) / 1e9 },
	}
}

// Publish assigns the event its sequence number, stamps its wall clock,
// encodes it, stores it as its sequence number, type and bytes, and
// wakes subscribers. It never blocks and returns the assigned sequence
// number. Publishing on a closed ring is a no-op returning 0.
//
// The encoding is the event's from then on (Data): every SSE frame
// copies it, and a durable log splices it into the job's finish
// record, so an event is encoded once however many times it is served.
// An event that cannot be encoded (a non-finite float) is stored whole,
// and each use of Data then fails as json.Marshal does.
func (r *Ring) Publish(ev Event) uint64 {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0
	}
	ev.Seq = r.next
	ev.Wall = r.now()
	ev.enc, _ = json.Marshal(ev)
	r.storeLocked(ev)
	r.mu.Unlock()
	return ev.Seq
}

// Feed ingests one event of an upstream job's stream, preserving its
// sequence number and wall stamp, as a relay must: re-stamping either
// would break resume cursors and the relayed stream's bit-identity.
// Events at the next expected sequence number are stored; already-seen
// sequence numbers (an overlapping resume replay) are dropped; an
// upstream gap event — or an implicit jump past the expected number —
// moves the ring past the gap, so subscribers positioned before it
// receive a locally synthesized gap for exactly the upstream-reported
// range, per the proxying rule that a relay never invents gaps of its
// own. Synthetic upstream events other than gaps (shutdown, Seq 0) are
// ignored: they describe the upstream connection, not the job. Feeding
// a closed ring is a no-op.
//
// An event that carries its encoding (WithEncoding) is stored as its
// sequence number, type and bytes, so subscribers are served the
// upstream's bytes; one without is stored whole. A relay need decode
// only what Feed reads — Seq, Type and a gap's range — and what it
// rewrites itself.
func (r *Ring) Feed(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if ev.Type == Gap && ev.Gap != nil {
		r.advanceLocked(ev.Gap.To + 1)
		return
	}
	if ev.Seq == 0 || ev.Seq < r.next {
		return
	}
	if ev.Seq > r.next {
		// The upstream skipped ahead without an explicit gap event (a
		// resume that lost the gap frame); treat the jump as the gap.
		r.advanceLocked(ev.Seq)
	}
	r.storeLocked(ev)
}

// storeLocked appends ev, whose sequence number is the next one, and
// wakes subscribers. An event that carries its encoding is kept as its
// sequence number, type and bytes, the shape a durable log serves, so
// every source a subscriber reads yields one shape: a reader that needs
// a payload block decodes Data. An event without an encoding (one
// Publish could not encode, or one fed without it) is kept whole, and
// Data encodes it, or fails, on each use. Caller holds r.mu.
func (r *Ring) storeLocked(ev Event) {
	if ev.enc != nil {
		ev = Event{Seq: ev.Seq, Type: ev.Type, enc: ev.enc}
	}
	if r.buf == nil {
		r.buf = make([]Event, 0, 8)
	}
	r.buf = append(r.buf, ev)
	r.next = ev.Seq + 1
	r.notifyLocked()
}

// advanceLocked moves the ring forward to seq without storing anything.
// The retained events before seq are dropped (a backfill recovers
// them), so subscribers whose cursor lies before seq observe a gap
// event for exactly the subrange of [cursor+1, seq-1] that no backfill
// can produce. Caller holds r.mu.
func (r *Ring) advanceLocked(seq uint64) {
	if seq <= r.next {
		return
	}
	r.buf = nil
	r.first, r.next = seq, seq
	r.notifyLocked()
}

// Sink returns a Sink publishing into the ring.
func (r *Ring) Sink() Sink { return func(ev Event) { r.Publish(ev) } }

// Events returns a copy of the retained events in sequence order, each
// as the ring stores it (its sequence number, type and bytes): a
// published ring's whole stream, as subscribers saw it. An offloaded
// ring retains none.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.buf))
	copy(out, r.buf)
	return out
}

// Offload hands the whole stream to backfill: the ring closes, drops
// every event it retains and from then on serves each one through
// backfill — the state RecoveredRing builds for a job restored from a
// durable log. Once a job's finish record is in the log the service
// offloads its ring, so the finished stream costs the heap nothing, and
// a subscriber reads it exactly as after a restart. Resume semantics
// are a live ring's: Subscribe(after) replays (Last-after) events.
func (r *Ring) Offload(backfill func(from, to uint64) []Event) {
	r.mu.Lock()
	r.buf = nil
	r.first = r.next
	r.closed = true
	r.backfill = backfill
	r.notifyLocked()
	r.mu.Unlock()
}

// SetBackfill installs (or, with nil, removes) the recovery source for
// events the ring no longer retains: the range an upstream gap or jump
// moved a fed ring past (Feed). fn is called under the ring lock with
// an inclusive [from, to] range and must return whatever contiguous
// suffix of that range it still holds, in ascending sequence order;
// subscribers then see a gap only for the prefix nothing can recover.
// Installing a backfill retroactively upgrades already-attached
// subscribers — their next read before the retained events consults
// it.
func (r *Ring) SetBackfill(fn func(from, to uint64) []Event) {
	r.mu.Lock()
	r.backfill = fn
	r.mu.Unlock()
}

// RecoveredRing rebuilds the ring of a finished job restored from a
// durable log: an offloaded ring (Offload) whose stream ended at
// sequence number last, so SSE Last-Event-ID reconnects work unchanged
// across a daemon restart.
func RecoveredRing(last uint64, backfill func(from, to uint64) []Event) *Ring {
	r := NewRing()
	r.next = last + 1
	r.Offload(backfill)
	return r
}

// Close marks the stream complete: subscribers drain the retained
// events and then see end-of-stream. Idempotent.
func (r *Ring) Close() {
	r.mu.Lock()
	r.closed = true
	r.notifyLocked()
	r.mu.Unlock()
}

// Last returns the highest sequence number published so far (0 when
// nothing was published).
func (r *Ring) Last() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - 1
}

// notifyLocked nudges every subscriber; the 1-slot signal channel makes
// the send non-blocking, so a parked SSE writer can never slow Publish.
func (r *Ring) notifyLocked() {
	for sub := range r.subs {
		select {
		case sub.sig <- struct{}{}:
		default:
		}
	}
}

// Subscribe attaches a subscriber that resumes after the given sequence
// number (0 replays from the beginning of the stream). Cancel the
// subscription when done. No event follows math.MaxUint64, so that
// cursor stops one short: the next wanted sequence number must not wrap
// to 0, which would replay the whole stream behind a gap.
func (r *Ring) Subscribe(after uint64) *Sub {
	sub := &Sub{ring: r, cursor: min(after, math.MaxUint64-1), sig: make(chan struct{}, 1)}
	r.mu.Lock()
	r.subs[sub] = struct{}{}
	r.mu.Unlock()
	return sub
}

// Sub is one subscriber's cursor into a ring.
type Sub struct {
	ring   *Ring
	cursor uint64
	sig    chan struct{}
	// pending holds backfilled events not yet delivered. It is only
	// touched by the subscriber's own goroutine.
	pending []Event
}

// Next returns the subscriber's next event, blocking until one is
// available, the ring closes (all retained events delivered → ok
// false), or stop fires (ok false). For events the ring no longer
// retains — an offloaded stream, or the range a fed ring moved past —
// Next consults the ring's backfill (a durable log, a relay's upstream);
// only the range no backfill can produce comes back as a synthetic gap
// event, after which delivery resumes at the oldest recoverable event.
func (s *Sub) Next(stop <-chan struct{}) (Event, bool) {
	if len(s.pending) > 0 {
		ev := s.pending[0]
		s.pending = s.pending[1:]
		s.cursor = ev.Seq
		return ev, true
	}
	for {
		s.ring.mu.Lock()
		want := s.cursor + 1
		switch {
		case want < s.ring.first:
			if ev, ok := s.refillLocked(want); ok {
				s.ring.mu.Unlock()
				return ev, true
			}
			gap := Event{Type: Gap, Gap: &GapInfo{From: want, To: s.ring.first - 1}}
			s.cursor = s.ring.first - 1
			s.ring.mu.Unlock()
			return gap, true
		case want < s.ring.next:
			ev := s.ring.buf[want-s.ring.first]
			s.cursor = want
			s.ring.mu.Unlock()
			return ev, true
		case s.ring.closed:
			s.ring.mu.Unlock()
			return Event{}, false
		}
		s.ring.mu.Unlock()
		select {
		case <-s.sig:
		case <-stop:
			return Event{}, false
		}
	}
}

// refillLocked asks the ring's backfill for the range [want, first-1]
// the ring no longer retains and queues whatever it recovers. It returns the first
// event to deliver: a recovered event when the backfill covers want
// itself, or a gap naming exactly the unrecoverable prefix when it only
// covers a suffix. ok is false when nothing was recovered at all (the
// caller falls through to the plain whole-range gap). Caller holds
// s.ring.mu.
func (s *Sub) refillLocked(want uint64) (Event, bool) {
	if s.ring.backfill == nil {
		return Event{}, false
	}
	to := s.ring.first - 1
	evs := s.ring.backfill(want, to)
	// Defensive trim: keep only in-range events forming one contiguous
	// ascending run, so a misbehaving backfill cannot corrupt cursors.
	run := evs[:0:len(evs)]
	for _, ev := range evs {
		if ev.Seq < want || ev.Seq > to {
			continue
		}
		if len(run) > 0 && ev.Seq != run[len(run)-1].Seq+1 {
			break
		}
		run = append(run, ev)
	}
	if len(run) == 0 {
		return Event{}, false
	}
	if run[0].Seq > want {
		// Partial recovery: the gap covers only what is truly lost.
		s.pending = run
		s.cursor = run[0].Seq - 1
		return Event{Type: Gap, Gap: &GapInfo{From: want, To: run[0].Seq - 1}}, true
	}
	s.pending = run[1:]
	s.cursor = run[0].Seq
	return run[0], true
}

// Ready reports whether Next would return without waiting: a
// backfilled event is pending, the next event (or a gap) is already in
// the ring, or the ring is closed. An SSE writer flushes only when it
// is false, so a burst of frames leaves in as few writes as its bytes
// fill while a live frame still leaves at once.
func (s *Sub) Ready() bool {
	if len(s.pending) > 0 {
		return true
	}
	s.ring.mu.Lock()
	defer s.ring.mu.Unlock()
	return s.cursor+1 < s.ring.next || s.ring.closed
}

// Cursor returns the last sequence number delivered to this subscriber.
func (s *Sub) Cursor() uint64 { return s.cursor }

// Cancel detaches the subscriber from the ring.
func (s *Sub) Cancel() {
	s.ring.mu.Lock()
	delete(s.ring.subs, s)
	s.ring.mu.Unlock()
}
