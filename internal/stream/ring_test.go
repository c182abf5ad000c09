package stream

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// testRing builds a ring with a deterministic wall stamp so tests can
// assert full events.
func testRing(capacity int) *Ring {
	r := NewRing(capacity)
	r.now = func() float64 { return 0 }
	return r
}

func publishN(r *Ring, n int) {
	for i := 0; i < n; i++ {
		r.Publish(Event{Type: OpStarted, Op: &OpInfo{Index: i, Kind: "load"}})
	}
}

// drain collects every remaining event of a subscription.
func drain(sub *Sub) []Event {
	var out []Event
	done := make(chan struct{})
	close(done) // never block: ring must already hold everything
	for {
		ev, ok := sub.Next(done)
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// TestRingReplayAndResume pins the basic contract: monotonic sequence
// numbers from 1, full replay for a late subscriber, and duplicate-free
// resume from any cursor.
func TestRingReplayAndResume(t *testing.T) {
	r := testRing(16)
	publishN(r, 5)
	r.Close()

	got := drain(r.Subscribe(0))
	if len(got) != 5 {
		t.Fatalf("full replay: %d events, want 5", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Op == nil || ev.Op.Index != i {
			t.Errorf("event %d payload out of order: %+v", i, ev.Op)
		}
	}

	// Resume mid-stream: no duplicates, no gaps.
	resumed := drain(r.Subscribe(3))
	if len(resumed) != 2 || resumed[0].Seq != 4 || resumed[1].Seq != 5 {
		t.Fatalf("resume after 3: %+v", resumed)
	}
}

// TestRingGapOnTruncation overwhelms a tiny ring: the slow subscriber
// must receive a single gap event naming exactly the lost range, then
// the retained tail — and the publisher must never have blocked.
func TestRingGapOnTruncation(t *testing.T) {
	r := testRing(4)
	sub := r.Subscribe(0)
	publishN(r, 10) // events 1..6 overwritten, 7..10 retained
	r.Close()

	got := drain(sub)
	if len(got) != 5 {
		t.Fatalf("got %d events, want gap + 4: %+v", len(got), got)
	}
	if got[0].Type != Gap || got[0].Gap == nil {
		t.Fatalf("first event is %q, want gap", got[0].Type)
	}
	if got[0].Gap.From != 1 || got[0].Gap.To != 6 {
		t.Errorf("gap range [%d,%d], want [1,6]", got[0].Gap.From, got[0].Gap.To)
	}
	if got[0].Seq != 0 {
		t.Errorf("gap event carries seq %d, want 0", got[0].Seq)
	}
	for i, ev := range got[1:] {
		if ev.Seq != uint64(7+i) {
			t.Errorf("post-gap event %d has seq %d, want %d", i, ev.Seq, 7+i)
		}
	}
}

// TestRingPublisherNeverBlocks parks a subscriber that never reads and
// publishes far past capacity; Publish must stay prompt.
func TestRingPublisherNeverBlocks(t *testing.T) {
	r := testRing(8)
	sub := r.Subscribe(0)
	defer sub.Cancel()
	done := make(chan struct{})
	go func() {
		publishN(r, 10000)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked on an unread subscriber")
	}
}

// TestRingBlocksUntilPublish verifies the live path: Next parks until
// an event arrives, and returns promptly when one does.
func TestRingBlocksUntilPublish(t *testing.T) {
	r := testRing(8)
	sub := r.Subscribe(0)
	defer sub.Cancel()
	got := make(chan Event, 1)
	go func() {
		ev, ok := sub.Next(nil)
		if ok {
			got <- ev
		}
		close(got)
	}()
	time.Sleep(10 * time.Millisecond)
	r.Publish(Event{Type: JobPlaced})
	select {
	case ev := <-got:
		if ev.Type != JobPlaced || ev.Seq != 1 {
			t.Fatalf("got %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber never woke")
	}
}

// TestRingStopCancelsNext verifies stop wins over an idle stream.
func TestRingStopCancelsNext(t *testing.T) {
	r := testRing(8)
	sub := r.Subscribe(0)
	defer sub.Cancel()
	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		_, ok := sub.Next(stop)
		done <- ok
	}()
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned an event after stop")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next ignored stop")
	}
}

// TestRingConcurrentFanOut races one publisher against many readers
// (run under -race): every fast-enough subscriber sees the identical
// gap-free sequence — on a ring big enough that nobody gaps, and on a
// small pinned one that unpins to a backfill as readers drain it, as a
// durable job's ring does once its finish record persists.
func TestRingConcurrentFanOut(t *testing.T) {
	const events, readers = 200, 8
	for _, pinned := range []bool{false, true} {
		r := testRing(events) // big enough that nobody gaps
		if pinned {
			r = testRing(8)
			r.Pin()
		}
		var wg sync.WaitGroup
		streams := make([][]Event, readers)
		for i := 0; i < readers; i++ {
			wg.Add(1)
			sub := r.Subscribe(0)
			go func(i int, sub *Sub) {
				defer wg.Done()
				defer sub.Cancel()
				for {
					ev, ok := sub.Next(nil)
					if !ok {
						return
					}
					streams[i] = append(streams[i], ev)
				}
			}(i, sub)
		}
		publishN(r, events)
		r.Close()
		if pinned {
			r.SetBackfill(backfillFrom(r.Events()))
			r.Unpin()
		}
		wg.Wait()
		want := fmt.Sprintf("%+v", streams[0])
		for i, got := range streams {
			if len(got) != events {
				t.Fatalf("pinned %v: reader %d saw %d events, want %d", pinned, i, len(got), events)
			}
			if fmt.Sprintf("%+v", got) != want {
				t.Errorf("pinned %v: reader %d diverged from reader 0", pinned, i)
			}
		}
	}
}

// TestRingPublishAfterClose pins the terminal contract: a closed ring
// rejects publications.
func TestRingPublishAfterClose(t *testing.T) {
	r := testRing(8)
	publishN(r, 2)
	r.Close()
	if seq := r.Publish(Event{Type: JobDone}); seq != 0 {
		t.Fatalf("publish after close assigned seq %d", seq)
	}
	if got := drain(r.Subscribe(0)); len(got) != 2 {
		t.Fatalf("closed ring replayed %d events, want 2", len(got))
	}
	if r.Last() != 2 {
		t.Fatalf("Last() = %d, want 2", r.Last())
	}
}

// TestCollectorMatchesRingNumbering keeps the serial-replay sink and
// the production ring on the same sequence-number scheme.
func TestCollectorMatchesRingNumbering(t *testing.T) {
	var c Collector
	sink := c.Sink()
	for i := 0; i < 3; i++ {
		sink(Event{Type: OpStarted, Op: &OpInfo{Index: i, Kind: "scan"}})
	}
	if len(c.Events) != 3 {
		t.Fatalf("collector holds %d events", len(c.Events))
	}
	for i, ev := range c.Events {
		if ev.Seq != uint64(i+1) {
			t.Errorf("collector event %d has seq %d", i, ev.Seq)
		}
		if ev.Wall != 0 {
			t.Errorf("collector stamped wall clock %v", ev.Wall)
		}
	}
}

// TestRingGrowsWithPublishedEvents pins the ring's memory: a ring of
// the default capacity holds only as many slots as it has published
// events (at most double, at least 8), never the full capacity up
// front, and stops growing at the capacity. A pinned ring grows past
// the capacity and replays every event with no gap; after Unpin it
// holds at most the capacity and keeps the newest events, as a ring
// that was never pinned does.
func TestRingGrowsWithPublishedEvents(t *testing.T) {
	// check verifies that r holds at most limit slots and replays the
	// newest kept of n events, after a gap for the older ones.
	check := func(t *testing.T, r *Ring, n, limit, kept int) {
		t.Helper()
		if got := cap(r.buf); got > limit {
			t.Errorf("after %d events: %d slots, want at most %d", n, got, limit)
		}
		got := drain(r.Subscribe(0))
		want := kept
		if n > kept {
			want++ // the gap event for the overwritten prefix
		}
		if len(got) != want {
			t.Fatalf("after %d events: replayed %d, want %d", n, len(got), want)
		}
		for _, ev := range got {
			if ev.Type != Gap && ev.Op.Index != int(ev.Seq-1) {
				t.Fatalf("after %d events: seq %d holds op %d", n, ev.Seq, ev.Op.Index)
			}
		}
		if n > 0 && got[len(got)-1].Seq != uint64(n) {
			t.Fatalf("after %d events: last replayed seq %d", n, got[len(got)-1].Seq)
		}
	}
	for _, pinned := range []bool{false, true} {
		for _, n := range []int{0, 1, 8, 9, 20, 100, 300, 512, 2000} {
			r := testRing(DefaultCapacity)
			if pinned {
				r.Pin()
			}
			publishN(r, n)
			r.Close()
			if pinned {
				check(t, r, n, max(2*n, 8), n)
				r.Unpin()
			}
			check(t, r, n, min(max(2*n, 8), DefaultCapacity), min(n, DefaultCapacity))
		}
	}
}

// TestRingWrapAfterGrowth publishes well past a small capacity: once
// the slot slice has grown to the capacity, slots are reused by
// (seq-1) % capacity and every subscriber cursor reads the right event.
func TestRingWrapAfterGrowth(t *testing.T) {
	r := testRing(12)
	publishN(r, 30) // 1..18 overwritten, 19..30 retained
	if len(r.buf) != 12 {
		t.Fatalf("%d slots after wrapping, want the capacity 12", len(r.buf))
	}
	for after := uint64(18); after <= 30; after++ {
		sub := r.Subscribe(after)
		for want := after + 1; want <= 30; want++ {
			ev, ok := sub.Next(nil)
			if !ok || ev.Seq != want || ev.Op.Index != int(want-1) {
				t.Fatalf("after %d: got %+v, want seq %d", after, ev, want)
			}
		}
		sub.Cancel()
	}
}

// TestRingPublishEncodesOnce: Publish encodes the stamped event, and
// that encoding is the event's from then on — Data returns the same
// bytes on every call and WriteSSE writes them — while the decoded
// fields stay readable.
func TestRingPublishEncodesOnce(t *testing.T) {
	r := testRing(4)
	r.now = func() float64 { return 12.5 }
	r.Publish(Event{Type: ScanRows, T: 0.25, Scan: &ScanChunk{Batches: 1, Averaging: 4,
		Rows: []Detection{{Col: 3, Row: 4, ID: 1, Occupied: true, SNR: 9.5}}}})
	ev := r.Events()[0]
	want := `{"seq":1,"type":"scan.rows","t":0.25,"wall":12.5,"scan":{"scan":0,"batch":0,"batches":1,"averaging":4,"rows":[{"col":3,"row":4,"id":1,"occupied":true,"detected":false,"snr":9.5}]}}`
	data, err := ev.Data()
	if err != nil || string(data) != want {
		t.Fatalf("Data() = %s (%v), want %s", data, err, want)
	}
	if again, _ := ev.Data(); &again[0] != &data[0] {
		t.Error("Data() encoded the published event again")
	}
	var b strings.Builder
	WriteSSE(&b, ev)
	if got := b.String(); got != "id: 1\nevent: scan.rows\ndata: "+want+"\n\n" {
		t.Errorf("WriteSSE wrote %q", got)
	}
	if ev.Scan == nil || ev.Scan.Rows[0].SNR != 9.5 || ev.Wall != 12.5 {
		t.Errorf("published event lost its fields: %+v", ev)
	}
}

// TestRingOffload: offloading a pinned, closed ring drops every event
// it holds and serves the whole stream through the backfill, as a
// recovered ring does — replay from the start, from a mid-stream
// cursor and for a subscriber that was already part-way through, with
// no gap; Publish and Unpin then change nothing.
func TestRingOffload(t *testing.T) {
	r := testRing(4)
	r.Pin()
	publishN(r, 12)
	r.Close()
	evs := r.Events()
	early := r.Subscribe(0)
	if ev, ok := early.Next(nil); !ok || ev.Seq != 1 {
		t.Fatalf("first event %+v", ev)
	}
	r.Offload(backfillFrom(evs))
	if n := len(r.Events()); n != 0 || r.buf != nil {
		t.Fatalf("offloaded ring retains %d events (%d slots)", n, len(r.buf))
	}
	if got := r.Last(); got != 12 {
		t.Fatalf("Last() = %d, want 12", got)
	}
	if got := drain(r.Subscribe(0)); !reflect.DeepEqual(got, evs) {
		t.Fatalf("replay from 0 differs:\n got %+v\nwant %+v", got, evs)
	}
	if got := drain(r.Subscribe(7)); !reflect.DeepEqual(got, evs[7:]) {
		t.Fatalf("replay after 7 differs: %+v", got)
	}
	if got := drain(early); !reflect.DeepEqual(got, evs[1:]) {
		t.Fatalf("a subscriber attached before the offload continues with %+v", got)
	}
	if seq := r.Publish(Event{Type: OpStarted}); seq != 0 || r.Last() != 12 {
		t.Fatalf("Publish on an offloaded ring assigned %d", seq)
	}
	r.Unpin()
	if n := len(r.Events()); n != 0 {
		t.Fatalf("Unpin brought back %d events", n)
	}
	rec := RecoveredRing(12, backfillFrom(evs))
	if got := drain(rec.Subscribe(0)); !reflect.DeepEqual(got, evs) {
		t.Fatalf("a recovered ring replays %+v", got)
	}
}
