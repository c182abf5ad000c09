package stream

// Mirror is the proxy-side adapter of a Ring: a federation gateway (or
// any other relay) replicating an upstream job's event stream feeds the
// events it receives into a Mirror, and local subscribers get the full
// Ring contract — bounded replay window, Subscribe/Next, Last-Event-ID
// resume — against the mirrored stream. The critical difference from
// Publish is that Feed ingests events *verbatim*: the upstream ring
// already assigned sequence numbers and wall stamps, and re-stamping
// either would break resume cursors (and the bit-identity of the
// relayed stream). Out-of-order feeds are normalized: duplicates from
// an overlapping reconnect replay are dropped, and a jump past the next
// expected sequence number — which only happens when the upstream
// itself reported a gap — advances the window so local subscribers see
// a gap event covering exactly the range the upstream lost.
type Mirror struct {
	ring *Ring
}

// NewMirror builds a mirror retaining at most capacity events (0 or
// negative selects DefaultCapacity).
func NewMirror(capacity int) *Mirror {
	return &Mirror{ring: NewRing(capacity)}
}

// Feed ingests one upstream event, preserving its sequence number and
// wall stamp. Events at the next expected sequence number are stored;
// already-seen sequence numbers (an overlapping resume replay) are
// dropped; an upstream gap event — or an implicit jump past the
// expected number — advances the window so subscribers positioned
// before it receive a locally synthesized gap for exactly the
// upstream-reported range, per the proxying rule that a relay never
// invents gaps of its own. Synthetic upstream events other than gaps
// (shutdown, Seq 0) are ignored: they describe the upstream connection,
// not the job. Feeding a closed mirror is a no-op.
//
// An event is stored as given, its encoding included (WithEncoding), so
// subscribers are served the upstream's bytes. A relay need decode only
// what Feed reads — Seq, Type and a gap's range — and what it rewrites
// itself; a federation gateway decodes the Job and Gap blocks and
// leaves every other payload block encoded. A subscriber that reads
// payload fields decodes the event's Data.
func (m *Mirror) Feed(ev Event) {
	r := m.ring
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
	r.buf[r.slot(ev.Seq)] = ev
	r.next = ev.Seq + 1
	if r.tee != nil {
		r.tee(ev)
	}
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

// SetBackfill installs the recovery source for events that left the
// mirror window — for a relay, typically a bounded re-fetch from the
// upstream daemon. Semantics as Ring.SetBackfill.
func (m *Mirror) SetBackfill(fn func(from, to uint64) []Event) { m.ring.SetBackfill(fn) }

// Subscribe attaches a subscriber resuming after the given sequence
// number, exactly as Ring.Subscribe.
func (m *Mirror) Subscribe(after uint64) *Sub { return m.ring.Subscribe(after) }

// Last returns the highest sequence number fed so far (0 when nothing
// was fed) — the resume cursor a relay reconnects with.
func (m *Mirror) Last() uint64 { return m.ring.Last() }

// Close marks the mirrored stream complete: subscribers drain the
// retained events and see end-of-stream. Idempotent.
func (m *Mirror) Close() { m.ring.Close() }
