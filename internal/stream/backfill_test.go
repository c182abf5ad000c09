package stream

import (
	"reflect"
	"testing"
)

// backfillFrom serves a copy of a stream's events, seqs 1..n in order,
// as a ring backfill — the shape of the durable log's.
func backfillFrom(evs []Event) func(from, to uint64) []Event {
	return func(from, to uint64) []Event {
		from, to = max(from, 1), min(to, uint64(len(evs)))
		if from > to {
			return nil
		}
		return append([]Event(nil), evs[from-1:to]...)
	}
}

// TestTapeBackfillNoGap is the log-backed-ring regression test (named
// for the tape that pinning replaced): a pinned ring keeps the stream
// past its window, so a subscriber attaching after the window would
// have overwritten the head replays the complete stream — no gap
// event, every sequence number — although the ring's capacity is 4.
// After Unpin, with the ring's Events as backfill, replay stays
// complete.
func TestTapeBackfillNoGap(t *testing.T) {
	r := NewRing(4)
	r.now = func() float64 { return 0 }
	r.Pin()
	publishN(r, 20)
	r.Close()

	evs := r.Events()
	for _, phase := range []string{"pinned", "unpinned with backfill"} {
		if phase != "pinned" {
			r.SetBackfill(backfillFrom(evs))
			r.Unpin()
		}
		got := drain(r.Subscribe(0))
		if len(got) != 20 {
			t.Fatalf("%s: got %d events, want 20", phase, len(got))
		}
		for i, ev := range got {
			if ev.Type == Gap {
				t.Fatalf("%s: event %d is a gap despite a full backfill", phase, i)
			}
			if ev.Seq != uint64(i+1) {
				t.Fatalf("%s: event %d has seq %d", phase, i, ev.Seq)
			}
		}
		if !reflect.DeepEqual(got, evs) {
			t.Fatalf("%s: late replay differs from Events:\n got %+v\nwant %+v", phase, got, evs)
		}
		// Resume from the middle of the stream.
		mid := drain(r.Subscribe(7))
		if len(mid) != 13 || mid[0].Seq != 8 {
			t.Fatalf("%s: resume after 7: %d events, first seq %d", phase, len(mid), mid[0].Seq)
		}
	}
}

// TestTeeObservesStampedEvents pins what the finish record persists
// (named for the tee that Events replaced): a pinned ring's Events are
// the events after sequencing and stamping, exactly what subscribers
// saw and what a durable log should persist. Unpinning a closed ring is
// safe and keeps the newest capacity events.
func TestTeeObservesStampedEvents(t *testing.T) {
	r := NewRing(2)
	r.now = func() float64 { return 3.5 }
	r.Pin()
	publishN(r, 5)
	r.Close()
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("Events: %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.Wall != 3.5 {
			t.Fatalf("Events: event %d has seq %d wall %v", i, ev.Seq, ev.Wall)
		}
	}
	r.Unpin()
	if got := r.Events(); !reflect.DeepEqual(got, evs[3:]) {
		t.Fatalf("Events after Unpin: got %+v, want %+v", got, evs[3:])
	}
}

// TestPartialBackfillGapOnlyUnrecoverable pins the consistency fix: a
// backfill that lost its own head (here: only seqs >= 5 survive) must
// produce a gap naming exactly the unrecoverable range, then the
// recovered run, then the ring window — never a gap spanning data the
// log still holds.
func TestPartialBackfillGapOnlyUnrecoverable(t *testing.T) {
	r := NewRing(4)
	r.now = func() float64 { return 0 }
	r.Pin()
	publishN(r, 20)
	r.Close()
	all := backfillFrom(r.Events())
	r.Unpin()
	r.SetBackfill(func(from, to uint64) []Event {
		return all(max(from, 5), to)
	})

	evs := drain(r.Subscribe(0))
	if len(evs) != 17 {
		t.Fatalf("got %d events, want gap + 16", len(evs))
	}
	if evs[0].Type != Gap || evs[0].Gap.From != 1 || evs[0].Gap.To != 4 {
		t.Fatalf("first event %+v, want gap [1,4]", evs[0])
	}
	for i, ev := range evs[1:] {
		if ev.Seq != uint64(i+5) {
			t.Fatalf("recovered event %d has seq %d, want %d", i, ev.Seq, i+5)
		}
	}
}

// TestNoBackfillKeepsGapSemantics pins the pre-persistence behavior the
// default (non-durable) service still runs on: without a backfill the
// whole lost range is one gap, exactly as before.
func TestNoBackfillKeepsGapSemantics(t *testing.T) {
	r := NewRing(4)
	r.now = func() float64 { return 0 }
	publishN(r, 20)
	r.Close()
	evs := drain(r.Subscribe(0))
	if len(evs) != 5 {
		t.Fatalf("got %d events, want gap + 4 retained", len(evs))
	}
	if evs[0].Type != Gap || evs[0].Gap.From != 1 || evs[0].Gap.To != 16 {
		t.Fatalf("gap %+v, want [1,16]", evs[0])
	}
}

// TestRecoveredRing rebuilds a finished job's ring from a fake log: the
// window is empty, the stream is closed, and subscribers replay wholly
// through the backfill with live-identical resume semantics.
func TestRecoveredRing(t *testing.T) {
	src := NewRing(64)
	src.now = func() float64 { return 42 }
	publishN(src, 9)
	src.Close()
	want := drain(src.Subscribe(0))

	r := RecoveredRing(9, backfillFrom(src.Events()))
	if got := r.Last(); got != 9 {
		t.Fatalf("Last() = %d, want 9", got)
	}
	got := drain(r.Subscribe(0))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered replay differs:\n got %+v\nwant %+v", got, want)
	}
	// Mid-stream resume, as an SSE reconnect would do it.
	tail := drain(r.Subscribe(6))
	if len(tail) != 3 || tail[0].Seq != 7 {
		t.Fatalf("resume after 6: %d events, first seq %d", len(tail), tail[0].Seq)
	}
	// Resume at the end: nothing left, clean end of stream.
	if rest := drain(r.Subscribe(9)); len(rest) != 0 {
		t.Fatalf("resume after 9 returned %d events", len(rest))
	}
}
