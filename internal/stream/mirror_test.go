package stream

import (
	"reflect"
	"testing"
)

// feedN feeds events from..to with distinct payloads and upstream wall
// stamps into the ring, as a relay mirroring an upstream stream does.
func feedN(m *Ring, from, to uint64) {
	for seq := from; seq <= to; seq++ {
		m.Feed(Event{Seq: seq, Type: OpStarted, T: float64(seq), Wall: 100 + float64(seq)})
	}
}

// mirrorDrain collects every event the subscriber can produce until
// end-of-stream or max events.
func mirrorDrain(sub *Sub, max int) []Event {
	stop := make(chan struct{})
	close(stop)
	var out []Event
	for len(out) < max {
		ev, ok := sub.Next(stop)
		if !ok {
			break
		}
		out = append(out, ev)
	}
	return out
}

// TestMirrorVerbatimIngest pins the reason Feed exists: fed events
// keep their upstream sequence numbers AND wall stamps, unlike Publish
// which re-assigns both.
func TestMirrorVerbatimIngest(t *testing.T) {
	m := NewRing(8)
	feedN(m, 1, 3)
	m.Close()
	evs := mirrorDrain(m.Subscribe(0), 10)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		want := Event{Seq: uint64(i + 1), Type: OpStarted, T: float64(i + 1), Wall: 100 + float64(i+1)}
		if !reflect.DeepEqual(ev, want) {
			t.Fatalf("event %d = %+v, want %+v (verbatim, no re-stamping)", i, ev, want)
		}
	}
	if m.Last() != 3 {
		t.Fatalf("Last() = %d, want 3", m.Last())
	}
}

// TestMirrorDropsReplayedDuplicates models a relay reconnect that
// resumes with an overlap: already-mirrored sequence numbers must be
// dropped so subscribers never see a duplicate.
func TestMirrorDropsReplayedDuplicates(t *testing.T) {
	m := NewRing(8)
	feedN(m, 1, 4)
	feedN(m, 2, 6) // overlapping replay after a reconnect
	m.Close()
	evs := mirrorDrain(m.Subscribe(0), 10)
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

// TestMirrorUpstreamGapAdvancesWindow pins the gap pass-through rule:
// an upstream gap event advances the mirror window, and a subscriber
// positioned before it sees one locally synthesized gap covering
// exactly the upstream-reported range — never a relay-invented one.
func TestMirrorUpstreamGapAdvancesWindow(t *testing.T) {
	m := NewRing(8)
	feedN(m, 1, 2)
	m.Feed(Event{Type: Gap, Gap: &GapInfo{From: 3, To: 5}})
	feedN(m, 6, 7)
	m.Close()

	sub := m.Subscribe(2)
	evs := mirrorDrain(sub, 10)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want gap + 2 live: %+v", len(evs), evs)
	}
	if evs[0].Type != Gap || evs[0].Gap == nil || evs[0].Gap.From != 3 || evs[0].Gap.To != 5 {
		t.Fatalf("first event = %+v, want gap [3,5]", evs[0])
	}
	if evs[1].Seq != 6 || evs[2].Seq != 7 {
		t.Fatalf("post-gap events have seqs %d,%d, want 6,7", evs[1].Seq, evs[2].Seq)
	}
}

// TestMirrorImplicitJumpIsAGap: an upstream that skips ahead without an
// explicit gap frame (the gap frame itself was lost) is treated as the
// gap it implies. Advancing pushes the pre-gap events out of the window
// into the backfill tier — with the relay's upstream re-fetch installed,
// a late subscriber recovers them and the residual gap names exactly
// the range the upstream lost.
func TestMirrorImplicitJumpIsAGap(t *testing.T) {
	m := NewRing(8)
	feedN(m, 1, 2)
	m.Feed(Event{Seq: 5, Type: OpStarted, T: 5})
	m.SetBackfill(func(from, to uint64) []Event {
		var out []Event
		for seq := from; seq <= to && seq <= 2; seq++ {
			out = append(out, Event{Seq: seq, Type: OpStarted, T: float64(seq), Wall: 100 + float64(seq)})
		}
		return out
	})
	m.Close()
	evs := mirrorDrain(m.Subscribe(0), 10)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 2 + gap + 1: %+v", len(evs), evs)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("backfilled prefix has seqs %d,%d, want 1,2", evs[0].Seq, evs[1].Seq)
	}
	if evs[2].Type != Gap || evs[2].Gap == nil || evs[2].Gap.From != 3 || evs[2].Gap.To != 4 {
		t.Fatalf("event 2 = %+v, want gap [3,4]", evs[2])
	}
	if evs[3].Seq != 5 {
		t.Fatalf("event 3 seq = %d, want 5", evs[3].Seq)
	}
}

// TestMirrorBackfillOnOverflow: events pushed out of the mirror window
// are recovered through the backfill hook (a relay's bounded upstream
// re-fetch), so a late subscriber replays in full without a gap.
func TestMirrorBackfillOnOverflow(t *testing.T) {
	m := NewRing(4)
	var all []Event
	for seq := uint64(1); seq <= 10; seq++ {
		ev := Event{Seq: seq, Type: OpStarted, T: float64(seq)}
		all = append(all, ev)
		m.Feed(ev)
	}
	m.SetBackfill(func(from, to uint64) []Event {
		var out []Event
		for _, ev := range all {
			if ev.Seq >= from && ev.Seq <= to {
				out = append(out, ev)
			}
		}
		return out
	})
	m.Close()
	evs := mirrorDrain(m.Subscribe(0), 20)
	if len(evs) != 10 {
		t.Fatalf("got %d events, want all 10 via backfill: %+v", len(evs), evs)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

// TestMirrorFeedAfterClose is a no-op, matching Publish-after-Close.
func TestMirrorFeedAfterClose(t *testing.T) {
	m := NewRing(4)
	feedN(m, 1, 2)
	m.Close()
	feedN(m, 3, 3)
	if m.Last() != 2 {
		t.Fatalf("Last() = %d after post-close feed, want 2", m.Last())
	}
}

// TestMirrorJumpPastGrownLength feeds a forward jump that stores past
// the slots a mirror has grown so far, then past the capacity wrap:
// subscribers must read each stored event from its own slot and see a
// gap for exactly the ranges the upstream skipped.
func TestMirrorJumpPastGrownLength(t *testing.T) {
	m := NewRing(16)
	feedN(m, 1, 3)
	if n := len(m.buf); n != 3 {
		t.Fatalf("%d slots after 3 events, want 3", n)
	}
	// Seq 12 lands in slot 11: past the grown length (and capacity).
	feedN(m, 12, 14)
	evs := mirrorDrain(m.Subscribe(0), 10)
	want := []uint64{0, 12, 13, 14} // gap [1,11], then the stored tail
	if len(evs) != len(want) || evs[0].Gap == nil || evs[0].Gap.From != 1 || evs[0].Gap.To != 11 {
		t.Fatalf("after the jump: %+v, want gap [1,11] then 12..14", evs)
	}
	for i, ev := range evs[1:] {
		if ev.Seq != want[i+1] || ev.T != float64(ev.Seq) {
			t.Fatalf("after the jump: event %d = %+v, want seq %d", i+1, ev, want[i+1])
		}
	}
	// Seq 40 wraps to slot 7; 41..60 fill and reuse every slot.
	feedN(m, 40, 60)
	m.Close()
	evs = mirrorDrain(m.Subscribe(0), 40)
	if len(evs) != 17 || evs[0].Gap == nil || evs[0].Gap.From != 1 || evs[0].Gap.To != 44 {
		t.Fatalf("after the wrap: %d events starting %+v, want gap [1,44] then 45..60", len(evs), evs[0])
	}
	for i, ev := range evs[1:] {
		if want := uint64(45 + i); ev.Seq != want || ev.T != float64(want) || ev.Wall != 100+float64(want) {
			t.Fatalf("after the wrap: event %d = %+v, want seq %d", i+1, ev, want)
		}
	}
	// A subscriber parked before the jump resumes across it.
	evs = mirrorDrain(m.Subscribe(13), 40)
	if len(evs) != 17 || evs[0].Gap == nil || evs[0].Gap.From != 14 || evs[0].Gap.To != 44 {
		t.Fatalf("resume after 13: %d events starting %+v, want gap [14,44] then 45..60", len(evs), evs[0])
	}
}

// TestMirrorServesCarriedEncoding pins the relay contract: an event fed
// with an encoding is served with exactly those bytes, while events
// built in-process encode themselves.
func TestMirrorServesCarriedEncoding(t *testing.T) {
	m := NewRing(8)
	upstream := []byte(`{"seq":1,"type":"op.started","t":0.5,"op":{"index":0,"kind":"load"},"future":true}`)
	m.Feed(WithEncoding(Event{Seq: 1, Type: OpStarted}, upstream))
	m.Feed(Event{Seq: 2, Type: OpFinished, T: 1})
	m.Close()
	evs := mirrorDrain(m.Subscribe(0), 10)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if data, err := evs[0].Data(); err != nil || string(data) != string(upstream) {
		t.Errorf("relayed event data = %s (%v), want the upstream bytes %s", data, err, upstream)
	}
	if data, err := evs[1].Data(); err != nil || string(data) != `{"seq":2,"type":"op.finished","t":1}` {
		t.Errorf("local event data = %s (%v), want its own encoding", data, err)
	}
}
