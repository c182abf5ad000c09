package stream

import (
	"sync"
	"time"
)

// DefaultCapacity bounds a ring built with NewRing(0).
const DefaultCapacity = 512

// Ring is the bounded, replayable event buffer of one job. Publish
// assigns monotonic sequence numbers and never blocks: when the ring is
// full the oldest event is overwritten, and a subscriber that had not
// read it yet receives a synthetic gap event instead of stalling the
// publisher. Subscribers attach at any time (Subscribe) and replay the
// retained window from any resume point — the engine behind SSE
// Last-Event-ID reconnects.
type Ring struct {
	mu sync.Mutex
	// buf is circular storage indexed by (seq-1) % capacity. It grows
	// on demand (slot) up to capacity, so a ring holds slots for the
	// events it has published, not its capacity up front — a short
	// job's ring stays small although every job record keeps its ring.
	buf      []Event
	capacity int
	// first is the oldest retained sequence number; next is the next
	// to assign. Both start at 1 (empty ring: first == next).
	first, next uint64
	closed      bool
	subs        map[*Sub]struct{}
	// now stamps Event.Wall; tests may zero-stamp by replacing it.
	now func() float64
	// tee, when set, receives every published event (stamped, with its
	// sequence number) synchronously under the ring lock — the hook a
	// durable log uses to capture the full stream past the window.
	tee Sink
	// backfill, when set, recovers events that have left the window:
	// it returns the retained subsequence of [from, to] in ascending
	// seq order. Subscribers only see a gap for sequence numbers the
	// backfill cannot produce — data that is truly unrecoverable.
	backfill func(from, to uint64) []Event
}

// NewRing builds a ring retaining at most capacity events (0 or
// negative selects DefaultCapacity).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Ring{
		capacity: capacity,
		first:    1,
		next:     1,
		subs:     make(map[*Sub]struct{}),
		//detlint:allow walltime — THE sanctioned wall stamp: Event.Wall is telemetry, explicitly excluded from the determinism contract (tests zero it)
		now: func() float64 { return float64(time.Now().UnixNano()) / 1e9 },
	}
}

// Publish assigns the event its sequence number, stamps its wall clock,
// stores it (overwriting the oldest when full) and wakes subscribers.
// It never blocks and returns the assigned sequence number. Publishing
// on a closed ring is a no-op returning 0.
func (r *Ring) Publish(ev Event) uint64 {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0
	}
	ev.Seq = r.next
	ev.Wall = r.now()
	r.buf[r.slot(ev.Seq)] = ev
	r.next++
	if r.tee != nil {
		r.tee(ev)
	}
	if r.next-r.first > uint64(r.capacity) {
		r.first = r.next - uint64(r.capacity)
	}
	r.notifyLocked()
	r.mu.Unlock()
	return ev.Seq
}

// slot returns the storage index of seq, growing buf to cover it. The
// index is (seq-1) % capacity, never len(buf): a Mirror's forward jump
// can store past the grown length, and growth pads the slots between.
// Growth doubles from 8 slots, so a ring that stored n events holds at
// most max(2n, 8) slots, and never more than capacity. Caller holds
// r.mu.
func (r *Ring) slot(seq uint64) int {
	i := int((seq - 1) % uint64(r.capacity))
	if i < len(r.buf) {
		return i
	}
	if i < cap(r.buf) {
		r.buf = r.buf[:i+1]
		return i
	}
	buf := make([]Event, i+1, min(max(2*cap(r.buf), i+1, 8), r.capacity))
	copy(buf, r.buf)
	r.buf = buf
	return i
}

// Sink returns a Sink publishing into the ring.
func (r *Ring) Sink() Sink { return func(ev Event) { r.Publish(ev) } }

// Tee attaches (or, with nil, detaches) a secondary sink that receives
// every published event after it is stamped and sequenced. The tee runs
// synchronously under the ring lock and must not block — Tape.Append,
// the production tee, never does.
func (r *Ring) Tee(sink Sink) {
	r.mu.Lock()
	r.tee = sink
	r.mu.Unlock()
}

// SetBackfill installs (or, with nil, removes) the recovery source for
// events that have been overwritten out of the ring window. fn is
// called under the ring lock with an inclusive [from, to] range and
// must return whatever contiguous suffix of that range it still holds,
// in ascending sequence order; subscribers then see a gap only for the
// prefix nothing can recover. Installing a backfill retroactively
// upgrades already-attached subscribers — their next out-of-window read
// consults it.
func (r *Ring) SetBackfill(fn func(from, to uint64) []Event) {
	r.mu.Lock()
	r.backfill = fn
	r.mu.Unlock()
}

// RecoveredRing rebuilds the ring of a finished job restored from a
// durable log: the stream is complete (closed) at sequence number last,
// the in-memory window is empty, and every event a subscriber asks for
// is served through the backfill. Resume semantics are identical to a
// live ring's — Subscribe(after) replays (last-after) events — so SSE
// Last-Event-ID reconnects work unchanged across a daemon restart.
func RecoveredRing(last uint64, backfill func(from, to uint64) []Event) *Ring {
	r := NewRing(1)
	r.first, r.next = last+1, last+1
	r.closed = true
	r.backfill = backfill
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
// number (0 replays from the beginning of the retained window). Cancel
// the subscription when done.
func (r *Ring) Subscribe(after uint64) *Sub {
	sub := &Sub{ring: r, cursor: after, sig: make(chan struct{}, 1)}
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
// false), or stop fires (ok false). When the ring overwrote events the
// subscriber had not read, Next first consults the ring's backfill (a
// durable log can usually recover them); only the range no backfill can
// produce comes back as a synthetic gap event, after which delivery
// resumes at the oldest recoverable event.
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
			ev := s.ring.buf[int((want-1)%uint64(s.ring.capacity))]
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

// refillLocked asks the ring's backfill for the out-of-window range
// [want, first-1] and queues whatever it recovers. It returns the first
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

// Cursor returns the last sequence number delivered to this subscriber.
func (s *Sub) Cursor() uint64 { return s.cursor }

// Cancel detaches the subscriber from the ring.
func (s *Sub) Cancel() {
	s.ring.mu.Lock()
	delete(s.ring.subs, s)
	s.ring.mu.Unlock()
}
