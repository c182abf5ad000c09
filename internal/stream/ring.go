package stream

import (
	"math"
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
// Last-Event-ID reconnects. A relay fills a ring with Feed, not Publish.
type Ring struct {
	mu sync.Mutex
	// buf is circular storage indexed by (seq-1) % capacity. It grows
	// on demand (slot) up to capacity, so a ring holds slots for the
	// events it has stored, not its capacity up front — a short job's
	// ring stays small although every job record keeps its ring.
	buf []Event
	// capacity bounds the window. It is window, the bound the ring was
	// built with, except while pinned, when it is unbounded (Pin).
	capacity, window int
	// first is the oldest retained sequence number; next is the next
	// to assign. Both start at 1 (empty ring: first == next).
	first, next uint64
	closed      bool
	subs        map[*Sub]struct{}
	// now stamps Event.Wall; tests may zero-stamp by replacing it.
	now func() float64
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
		window:   capacity,
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
// advances the window so subscribers positioned before it receive a
// locally synthesized gap for exactly the upstream-reported range, per
// the proxying rule that a relay never invents gaps of its own.
// Synthetic upstream events other than gaps (shutdown, Seq 0) are
// ignored: they describe the upstream connection, not the job. Feeding
// a closed ring is a no-op.
//
// An event is stored as given, its encoding included (WithEncoding), so
// subscribers are served the upstream's bytes. A relay need decode only
// what Feed reads — Seq, Type and a gap's range — and what it rewrites
// itself; a federation gateway decodes the Job and Gap blocks and
// leaves every other payload block encoded. A subscriber that reads
// payload fields decodes the event's Data.
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

// storeLocked stores ev, whose sequence number is the next one, slides
// the window past the oldest event when the ring is full, and wakes
// subscribers. Caller holds r.mu.
func (r *Ring) storeLocked(ev Event) {
	r.buf[r.slot(ev.Seq)] = ev
	r.next = ev.Seq + 1
	if r.next-r.first > uint64(r.capacity) {
		r.first = r.next - uint64(r.capacity)
	}
	r.notifyLocked()
}

// advanceLocked moves the window start and the next expected sequence
// number forward to seq without storing anything. Retained events
// before seq leave the window (the backfill tier recovers them, as on
// any overflow), so subscribers whose cursor lies before seq observe a
// gap event for exactly the subrange of [cursor+1, seq-1] that no
// backfill can produce. Caller holds r.mu.
func (r *Ring) advanceLocked(seq uint64) {
	if seq <= r.next {
		return
	}
	r.next = seq
	if r.first < seq {
		r.first = seq
	}
	r.notifyLocked()
}

// index returns the storage index of seq. Caller holds r.mu.
func (r *Ring) index(seq uint64) int { return int((seq - 1) % uint64(r.capacity)) }

// slot returns the storage index of seq, growing buf to cover it. The
// index is (seq-1) % capacity, never len(buf): Feed's forward jump can
// store past the grown length, and growth pads the slots between.
// Growth doubles from 8 slots, so a ring that stored n events holds at
// most max(2n, 8) slots, and never more than capacity. Caller holds
// r.mu.
func (r *Ring) slot(seq uint64) int {
	i := r.index(seq)
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

// Pin lifts the ring's bound until Unpin, so it keeps every event: for a
// job whose stream must outlive the window, one a finish record
// persists or a cache hit replays. Slots are then indexed by seq-1, so
// call Pin before the first Publish.
func (r *Ring) Pin() {
	r.mu.Lock()
	r.capacity = math.MaxInt
	r.mu.Unlock()
}

// Unpin ends a pin: the ring keeps the newest events as its window, as
// if it had never been pinned, and releases the rest to the backfill,
// or to a gap. Unpinning an unpinned ring is a no-op.
func (r *Ring) Unpin() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.capacity == r.window {
		return
	}
	r.capacity = r.window
	if r.next-r.first > uint64(r.capacity) {
		r.first = r.next - uint64(r.capacity)
	}
	if cap(r.buf) > r.capacity {
		// Seq s sat at s-1; the window puts it at (s-1) % capacity.
		pinned := r.buf
		r.buf = make([]Event, min(len(pinned), r.capacity))
		for seq := r.first; seq < r.next; seq++ {
			r.buf[r.index(seq)] = pinned[seq-1]
		}
	}
}

// Events returns a copy of the retained events in sequence order: a
// pinned ring's whole stream, as subscribers saw it.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.next-r.first)
	for seq := r.first; seq < r.next; seq++ {
		out = append(out, r.buf[r.index(seq)])
	}
	return out
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
			ev := s.ring.buf[s.ring.index(want)]
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
