package stream

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// testRing builds a ring with a deterministic wall stamp so tests can
// assert full events.
func testRing() *Ring {
	r := NewRing()
	r.now = func() float64 { return 0 }
	return r
}

func publishN(r *Ring, n int) {
	for i := 0; i < n; i++ {
		r.Publish(Event{Type: OpStarted, Op: &OpInfo{Index: i, Kind: "load"}})
	}
}

// decoded returns the event its bytes (Data) encode, every payload
// block decoded: a ring keeps an encoded event as its sequence number,
// type and bytes alone.
func decoded(t *testing.T, ev Event) Event {
	t.Helper()
	data, err := ev.Data()
	if err != nil {
		t.Fatal(err)
	}
	var full Event
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatalf("event %d (%s): %v", ev.Seq, ev.Type, err)
	}
	return full
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
	r := testRing()
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
		if op := decoded(t, ev).Op; op == nil || op.Index != i {
			t.Errorf("event %d payload out of order: %+v", i, op)
		}
	}

	// Resume mid-stream: no duplicates, no gaps.
	resumed := drain(r.Subscribe(3))
	if len(resumed) != 2 || resumed[0].Seq != 4 || resumed[1].Seq != 5 {
		t.Fatalf("resume after 3: %+v", resumed)
	}
}

// TestRingPublisherNeverBlocks parks a subscriber that never reads
// while 10,000 events are published; Publish must stay prompt, and the
// subscriber, once it reads, must get every event with no gap.
func TestRingPublisherNeverBlocks(t *testing.T) {
	const n = 10000
	r := testRing()
	sub := r.Subscribe(0)
	defer sub.Cancel()
	done := make(chan struct{})
	go func() {
		publishN(r, n)
		r.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked on an unread subscriber")
	}
	got := drain(sub)
	if len(got) != n {
		t.Fatalf("the unread subscriber then read %d events, want %d", len(got), n)
	}
	for i, ev := range got {
		if ev.Type == Gap || ev.Seq != uint64(i+1) {
			t.Fatalf("event %d is %s seq %d, want seq %d", i, ev.Type, ev.Seq, i+1)
		}
	}
}

// TestRingBlocksUntilPublish verifies the live path: Next parks until
// an event arrives, and returns promptly when one does.
func TestRingBlocksUntilPublish(t *testing.T) {
	r := testRing()
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
	r := testRing()
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
// (run under -race): every subscriber sees the identical gap-free
// sequence — on a ring that keeps its events, and on one offloaded to a
// backfill as readers drain it, as a durable job's ring is once its
// finish record persists.
func TestRingConcurrentFanOut(t *testing.T) {
	const events, readers = 200, 8
	for _, offloaded := range []bool{false, true} {
		r := testRing()
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
		if offloaded {
			r.Offload(backfillFrom(r.Events()))
		}
		wg.Wait()
		want := fmt.Sprintf("%+v", streams[0])
		for i, got := range streams {
			if len(got) != events {
				t.Fatalf("offloaded %v: reader %d saw %d events, want %d", offloaded, i, len(got), events)
			}
			if fmt.Sprintf("%+v", got) != want {
				t.Errorf("offloaded %v: reader %d diverged from reader 0", offloaded, i)
			}
		}
	}
}

// TestRingPublishAfterClose pins the terminal contract: a closed ring
// rejects publications.
func TestRingPublishAfterClose(t *testing.T) {
	r := testRing()
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

// TestRingGrowsWithPublishedEvents pins the ring's memory: a ring that
// stored n events holds at most max(2n, 8) slots, never more up front,
// and replays all n of them with no gap, however long the stream.
func TestRingGrowsWithPublishedEvents(t *testing.T) {
	for _, n := range []int{0, 1, 8, 9, 20, 100, 300, 512, 513, 2000} {
		r := testRing()
		publishN(r, n)
		r.Close()
		if got, limit := cap(r.buf), max(2*n, 8); got > limit {
			t.Errorf("after %d events: %d slots, want at most %d", n, got, limit)
		}
		got := drain(r.Subscribe(0))
		if len(got) != n {
			t.Fatalf("after %d events: replayed %d", n, len(got))
		}
		for i, ev := range got {
			if op := decoded(t, ev).Op; ev.Seq != uint64(i+1) || op.Index != i {
				t.Fatalf("after %d events: event %d is seq %d op %+v", n, i, ev.Seq, op)
			}
		}
	}
}

// TestRingPublishEncodesOnce: Publish encodes the stamped event, and
// that encoding is the event's from then on — Data returns the same
// bytes on every call and WriteSSE writes them — while the ring keeps
// no decoded payload beside them.
func TestRingPublishEncodesOnce(t *testing.T) {
	r := testRing()
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
	if ev.Scan != nil || ev.T != 0 || ev.Wall != 0 {
		t.Errorf("published event kept decoded fields beside its bytes: %+v", ev)
	}
}

// TestRingOffload: offloading a closed ring drops every event it holds
// and serves the whole stream through the backfill, as a recovered ring
// does — replay from the start, from a mid-stream cursor and for a
// subscriber that was already part-way through, with no gap; Publish
// then changes nothing.
func TestRingOffload(t *testing.T) {
	r := testRing()
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
	// No event follows the largest sequence number: resuming after it
	// must not wrap around to a replay from the start.
	if got := drain(r.Subscribe(math.MaxUint64)); len(got) != 0 {
		t.Fatalf("resume after MaxUint64 replays %+v", got)
	}
	if seq := r.Publish(Event{Type: OpStarted}); seq != 0 || r.Last() != 12 || len(r.Events()) != 0 {
		t.Fatalf("Publish on an offloaded ring assigned %d", seq)
	}
	rec := RecoveredRing(12, backfillFrom(evs))
	if got := drain(rec.Subscribe(0)); !reflect.DeepEqual(got, evs) {
		t.Fatalf("a recovered ring replays %+v", got)
	}
}
