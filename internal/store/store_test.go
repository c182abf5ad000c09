package store

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"biochip/internal/stream"
)

// testSubmit builds a submit record with a tiny valid program payload.
func testSubmit(id string, seed uint64) SubmitRecord {
	return SubmitRecord{ID: id, Seed: seed, Program: json.RawMessage(`{"name":"p"}`)}
}

// testFinish builds a finish record with n events.
func testFinish(id string, n int) FinishRecord {
	evs := make([]stream.Event, n)
	for i := range evs {
		evs[i] = stream.Event{Seq: uint64(i + 1), Type: stream.OpStarted, T: float64(i)}
	}
	return FinishRecord{
		ID: id, Status: "done", Profile: "default", Eligible: []string{"default"},
		Report: json.RawMessage(`{"program":"p"}`), Events: evs,
	}
}

// frames renders each event as its sequence number, its type and its
// encoding (Data): the form Events serves a stream in, and the bytes a
// finish record holds.
func frames(t *testing.T, evs []stream.Event) []string {
	t.Helper()
	out := make([]string, len(evs))
	for i, ev := range evs {
		data, err := ev.Data()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		out[i] = fmt.Sprintf("%d %s %s", ev.Seq, ev.Type, data)
	}
	return out
}

// replayAll collects every record in the log.
func replayAll(t *testing.T, d *Disk) []*Record {
	t.Helper()
	var out []*Record
	if err := d.Replay(func(rec *Record) error { out = append(out, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDiskRoundTrip pins the basic contract: records appended to a
// store come back — in order, byte-identical payloads — from a fresh
// Open of the same directory, and the finish index serves Events.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LogSubmit(testSubmit("a-000001", 7)); err != nil {
		t.Fatal(err)
	}
	if err := d.LogSubmit(testSubmit("a-000002", 8)); err != nil {
		t.Fatal(err)
	}
	fin := testFinish("a-000001", 3)
	if err := d.LogFinish(fin); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	recs := replayAll(t, d2)
	if len(recs) != 3 {
		t.Fatalf("replay returned %d records, want 3", len(recs))
	}
	if recs[0].Kind != KindSubmit || recs[0].Submit.ID != "a-000001" || recs[0].Submit.Seed != 7 {
		t.Errorf("record 0: %+v", recs[0])
	}
	if recs[1].Kind != KindSubmit || recs[1].Submit.ID != "a-000002" {
		t.Errorf("record 1: %+v", recs[1])
	}
	if recs[2].Kind != KindFinish || recs[2].Finish.ID != "a-000001" {
		t.Errorf("record 2: %+v", recs[2])
	}
	evs, err := d2.Events("a-000001")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := frames(t, evs), frames(t, fin.Events); !reflect.DeepEqual(got, want) {
		t.Errorf("Events() = %q, want %q", got, want)
	}
	if _, err := d2.Events("a-000002"); err != ErrUnknownJob {
		t.Errorf("Events on unfinished job: %v, want ErrUnknownJob", err)
	}
	st := d2.Stats()
	if st.Kind != "disk" || st.Records != 3 || st.Truncated != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestDiskTornTailRecovery appends garbage and half-written frames to
// the log tail: Open must truncate back to the last durable record and
// keep appending from there, and the discarded bytes must be reported.
func TestDiskTornTailRecovery(t *testing.T) {
	tails := [][]byte{
		{0x01},                               // short header
		{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4}, // implausible length
		frame([]byte(`{"kind":"submit","submit":{"id":"x"}}`))[:12], // torn payload
		func() []byte { // valid frame, CRC of different bytes
			f := frame([]byte(`{"kind":"submit","submit":{"id":"x"}}`))
			f[len(f)-1] ^= 0xff
			return f
		}(),
		frame([]byte(`not json`)),           // CRC-valid, undecodable
		frame([]byte(`{"kind":"mystery"}`)), // CRC-valid, unknown kind
		frame([]byte(`{"kind":"submit"}`)),  // kind without payload block
	}
	for i, tail := range tails {
		dir := t.TempDir()
		d, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.LogSubmit(testSubmit("a-000001", 1)); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "wal-000001.seg")
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		d2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("tail %d: %v", i, err)
		}
		recs := replayAll(t, d2)
		if len(recs) != 1 || recs[0].Submit.ID != "a-000001" {
			t.Fatalf("tail %d: recovered %d records", i, len(recs))
		}
		if got := d2.Stats().Truncated; got != int64(len(tail)) {
			t.Errorf("tail %d: truncated %d bytes, want %d", i, got, len(tail))
		}
		// The log is usable after recovery: append, reopen, both live.
		if err := d2.LogSubmit(testSubmit("a-000002", 2)); err != nil {
			t.Fatalf("tail %d: %v", i, err)
		}
		d2.Close()
		d3, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("tail %d: %v", i, err)
		}
		if recs := replayAll(t, d3); len(recs) != 2 || recs[1].Submit.ID != "a-000002" {
			t.Fatalf("tail %d: %d records after recovery append", i, len(recs))
		}
		d3.Close()
	}
}

// TestDiskSegmentRoll forces a tiny segment budget: the log must roll
// into multiple files, replay across all of them in order, and serve
// Events out of sealed segments.
func TestDiskSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{NoSync: true, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var fins []FinishRecord
	for i := 0; i < 8; i++ {
		id := testSubmit("a-00000"+string(rune('1'+i)), uint64(i)).ID
		if err := d.LogSubmit(testSubmit(id, uint64(i))); err != nil {
			t.Fatal(err)
		}
		fin := testFinish(id, 4)
		fins = append(fins, fin)
		if err := d.LogFinish(fin); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	d.Close()

	d2, err := Open(dir, Options{NoSync: true, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	recs := replayAll(t, d2)
	if len(recs) != 16 {
		t.Fatalf("replay returned %d records, want 16", len(recs))
	}
	for _, fin := range fins {
		evs, err := d2.Events(fin.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(frames(t, evs), frames(t, fin.Events)) {
			t.Errorf("job %s events differ after segment roll", fin.ID)
		}
	}
}

// TestDiskCorruptionMidLogIsHardError plants corruption in a sealed
// (non-last) segment: that is lost history, not a torn tail, and Open
// must refuse rather than silently skip records.
func TestDiskCorruptionMidLogIsHardError(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{NoSync: true, MaxSegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := d.LogFinish(testFinish("a-000001", 8)); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	d.Close()
	first := filepath.Join(dir, "wal-000001.seg")
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true, MaxSegmentBytes: 128}); err == nil {
		t.Fatal("Open accepted corruption in a sealed segment")
	}
}

// TestDiskRouteRecords pins the federation gateway's binding records:
// route records appended to a store replay in order from a fresh Open,
// interleaved with submit records, survive a trailing torn write, and
// count in the store stats like any other record.
func TestDiskRouteRecords(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	r1 := RouteRecord{ID: "a-000001", Member: "m1", RemoteID: "a-000042",
		Seed: 7, Program: json.RawMessage(`{"name":"p"}`)}
	r2 := RouteRecord{ID: "a-000002", Member: "m2", RemoteID: "a-000001", Seed: 8}
	if err := d.LogRoute(r1); err != nil {
		t.Fatal(err)
	}
	if err := d.LogSubmit(testSubmit("a-000003", 9)); err != nil {
		t.Fatal(err)
	}
	if err := d.LogRoute(r2); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn trailing frame must not disturb the route records before it.
	seg := filepath.Join(dir, "wal-000001.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if st := d2.Stats(); st.Records != 3 || st.Truncated == 0 {
		t.Fatalf("stats after reopen: %+v, want 3 records and a truncated tail", st)
	}
	recs := replayAll(t, d2)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[0].Kind != KindRoute || recs[1].Kind != KindSubmit || recs[2].Kind != KindRoute {
		t.Fatalf("replayed kinds %s/%s/%s, want route/submit/route",
			recs[0].Kind, recs[1].Kind, recs[2].Kind)
	}
	if !reflect.DeepEqual(*recs[0].Route, r1) || !reflect.DeepEqual(*recs[2].Route, r2) {
		t.Fatalf("route records did not round-trip: %+v / %+v", recs[0].Route, recs[2].Route)
	}
}

// TestDiskEventsFixedAllocs: Events slices one read of the record and
// decodes nothing, so serving a stream makes the same few allocations
// however many events it holds — on a record appended by this process
// and on one indexed by a reopen alike.
func TestDiskEventsFixedAllocs(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range map[string]int{"a-000001": 1, "a-000002": 25} {
		if err := d.LogFinish(testFinish(id, n)); err != nil {
			t.Fatal(err)
		}
	}
	// The least of three counts: a background allocation (seen under
	// -race) can add one to a count, never take one away.
	allocs := func(d *Disk, id string) float64 {
		least := math.Inf(1)
		for range 3 {
			least = min(least, testing.AllocsPerRun(50, func() {
				if _, err := d.Events(id); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	one, many := allocs(d, "a-000001"), allocs(d, "a-000002")
	if many != one || many > 10 {
		t.Errorf("Events makes %v allocations for 25 events and %v for 1, want the same few", many, one)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := allocs(d2, "a-000002"); got != many {
		t.Errorf("after a reopen Events makes %v allocations, %v before", got, many)
	}
}
