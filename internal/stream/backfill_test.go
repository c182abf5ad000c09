package stream

import (
	"fmt"
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
// for the tape the ring's own storage replaced): a subscriber attaching
// after the job finished replays the complete stream — no gap event,
// every sequence number — from the ring's events, and again after the
// ring is offloaded with those events as its backfill.
func TestTapeBackfillNoGap(t *testing.T) {
	r := testRing()
	publishN(r, 20)
	r.Close()

	evs := r.Events()
	for _, phase := range []string{"retained", "offloaded"} {
		if phase == "offloaded" {
			r.Offload(backfillFrom(evs))
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
// (named for the tee that Events replaced): a ring's Events are every
// event after sequencing and stamping, each with its encoding — exactly
// what subscribers saw and what a durable log should persist.
func TestTeeObservesStampedEvents(t *testing.T) {
	r := NewRing()
	r.now = func() float64 { return 3.5 }
	publishN(r, 600)
	r.Close()
	evs := r.Events()
	if len(evs) != 600 {
		t.Fatalf("Events: %d events, want 600", len(evs))
	}
	for i, ev := range evs {
		if d := decoded(t, ev); ev.Seq != uint64(i+1) || d.Wall != 3.5 || d.Op.Index != i {
			t.Fatalf("Events: event %d has seq %d wall %v op %+v", i, ev.Seq, d.Wall, d.Op)
		}
		want := fmt.Sprintf(`{"seq":%d,"type":"op.started","t":0,"wall":3.5,"op":{"index":%d,"kind":"load"}}`, i+1, i)
		if data, err := ev.Data(); err != nil || string(data) != want {
			t.Fatalf("Events: event %d encodes as %s (%v), want %s", i, data, err, want)
		}
	}
}

// TestPartialBackfillGapOnlyUnrecoverable pins the consistency fix: a
// ring offloaded to a backfill that lost its own head (here: only seqs
// >= 5 survive) must produce a gap naming exactly the unrecoverable
// range, then the recovered run — never a gap spanning data the log
// still holds.
func TestPartialBackfillGapOnlyUnrecoverable(t *testing.T) {
	r := testRing()
	publishN(r, 20)
	r.Close()
	all := backfillFrom(r.Events())
	r.Offload(func(from, to uint64) []Event {
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

// TestNoBackfillKeepsGapSemantics: without a backfill, what a ring no
// longer retains is one gap for the whole range — the range an upstream
// jump moved a fed ring past, and the whole stream of a ring offloaded
// with no backfill.
func TestNoBackfillKeepsGapSemantics(t *testing.T) {
	m := NewRing()
	feedN(m, 1, 4)
	feedN(m, 17, 20) // the upstream jumped past 5..16
	m.Close()
	evs := drain(m.Subscribe(0))
	if len(evs) != 5 {
		t.Fatalf("got %d events, want gap + 4 retained", len(evs))
	}
	if evs[0].Type != Gap || evs[0].Gap.From != 1 || evs[0].Gap.To != 16 {
		t.Fatalf("gap %+v, want [1,16]", evs[0])
	}
	for i, ev := range evs[1:] {
		if ev.Seq != uint64(17+i) {
			t.Fatalf("retained event %d has seq %d, want %d", i, ev.Seq, 17+i)
		}
	}

	r := testRing()
	publishN(r, 20)
	r.Offload(nil)
	evs = drain(r.Subscribe(0))
	if len(evs) != 1 || evs[0].Type != Gap || evs[0].Gap.From != 1 || evs[0].Gap.To != 20 {
		t.Fatalf("offloaded with no backfill: %+v, want one gap [1,20]", evs)
	}
}

// TestRecoveredRing rebuilds a finished job's ring from a fake log: the
// ring holds no events, the stream is closed, and subscribers replay wholly
// through the backfill with live-identical resume semantics.
func TestRecoveredRing(t *testing.T) {
	src := NewRing()
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
