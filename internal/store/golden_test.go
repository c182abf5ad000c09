package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"biochip/internal/stream"
)

// goldenSegment is a segment file holding goldenRecords, written by
// LogSubmit, LogFinish and LogRoute of a build that encoded every record
// with json.Marshal(Record). It pins the on-disk format across versions:
// a build that splices finish records must read it and write it again
// byte for byte.
const goldenSegment = "testdata/wal-golden.seg"

// goldenRecords are the records of goldenSegment, in append order: a
// submit, a done finish record whose report and event strings hold <, >
// and & (which json.Marshal escapes) and whose stream has a scan.rows
// event, a cache-hit alias of it, a failed finish record and a route
// record. Raw JSON fields hold what json.Marshal writes, as the service
// stores them.
func goldenRecords() []*Record {
	mustJSON := func(v any) json.RawMessage {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return raw
	}
	program := mustJSON(map[string]any{"name": "sort <live> & dead", "ops": []map[string]any{
		{"op": "load", "kind": "viable-cell", "count": 3}, {"op": "capture"}, {"op": "scan", "averaging": 4}}})
	report := mustJSON(map[string]any{"program": "sort <live> & dead", "duration": 1.25,
		"trapped": 3, "scans": []map[string]any{{"detections": 3, "note": "a<b && c>d"}}})
	const wall = 1.7609616e9
	done := []stream.Event{
		{Seq: 1, Type: stream.JobPlaced, Wall: wall + 0.000125, Job: &stream.JobInfo{ID: "a-000001",
			Program: "sort <live> & dead", Seed: 42, Eligible: []string{"default"}}},
		{Seq: 2, Type: stream.JobStarted, Wall: wall + 0.0021, Job: &stream.JobInfo{ID: "a-000001", Profile: "default"}},
		{Seq: 3, Type: stream.OpStarted, Wall: wall + 0.0025, Op: &stream.OpInfo{Index: 0, Kind: "load",
			Detail: "load 3 × viable <cell> & co"}},
		{Seq: 4, Type: stream.OpFinished, T: 0.5, Wall: wall + 0.0031, Op: &stream.OpInfo{Index: 0, Kind: "load",
			Detail: "3 loaded"}},
		{Seq: 5, Type: stream.ScanRows, T: 1.25, Wall: wall + 0.0042, Scan: &stream.ScanChunk{Scan: 0, Batch: 0,
			Batches: 1, Averaging: 4, Rows: []stream.Detection{
				{Col: 5, Row: 1, ID: 1, Occupied: true, Detected: true, SNR: 798.7900274669146},
				{Col: 3, Row: 1, ID: 2, Occupied: true, Detected: false, SNR: 0.1},
				{Col: 1, Row: 9, ID: -1, SNR: 1e-7}}}},
		{Seq: 6, Type: stream.PlanExecuted, T: 1.25, Wall: wall + 0.0043, Plan: &stream.PlanInfo{
			Planner: "prioritized<a*>", Makespan: 12, Moves: 30}},
		{Seq: 7, Type: stream.JobDone, T: 1.25, Wall: wall + 0.005, Job: &stream.JobInfo{ID: "a-000001",
			Duration: 1.25, Trapped: 3, Steps: 12, ScanErrors: 1}},
	}
	failed := []stream.Event{
		{Seq: 1, Type: stream.JobPlaced, Wall: wall + 1, Job: &stream.JobInfo{ID: "a-000003",
			Program: "sort <live> & dead", Seed: 7}},
		{Seq: 2, Type: stream.JobFailed, Wall: wall + 1.5, Job: &stream.JobInfo{ID: "a-000003"},
			Err: "assay: op 2: capture <before> & load"},
	}
	return []*Record{
		{Kind: KindSubmit, Submit: &SubmitRecord{ID: "a-000001", Seed: 42, Program: program}},
		{Kind: KindFinish, Finish: &FinishRecord{ID: "a-000001", Status: "done", Profile: "default",
			Eligible: []string{"default"}, Key: "5f3c0a9e", Report: report, Events: done}},
		{Kind: KindSubmit, Submit: &SubmitRecord{ID: "a-000002", Seed: 42, Program: program}},
		{Kind: KindFinish, Finish: &FinishRecord{ID: "a-000002", Status: "done", Profile: "default",
			Eligible: []string{"default"}, DedupOf: "a-000001"}},
		{Kind: KindSubmit, Submit: &SubmitRecord{ID: "a-000003", Seed: 7, Program: program}},
		{Kind: KindFinish, Finish: &FinishRecord{ID: "a-000003", Status: "failed",
			Eligible: []string{"default", "big & <fast>"}, Error: "assay: op 2: capture <before> & load", Events: failed}},
		{Kind: KindRoute, Route: &RouteRecord{ID: "a-000004", Member: "w<0>", RemoteID: "a-000042", Seed: 9, Program: program}},
	}
}

// appendRecord appends rec through the Log method of its kind.
func appendRecord(d *Disk, rec *Record) error {
	switch rec.Kind {
	case KindSubmit:
		return d.LogSubmit(*rec.Submit)
	case KindFinish:
		return d.LogFinish(*rec.Finish)
	default:
		return d.LogRoute(*rec.Route)
	}
}

// TestGoldenSegment opens the committed segment: Open and Replay see
// every record as goldenRecords holds it; Events serves each finished
// stream — an alias's through its root — as frames whose bytes equal
// the elements of the record's events array; and appending the
// replayed records to an empty log writes the segment again, byte for
// byte.
func TestGoldenSegment(t *testing.T) {
	golden, err := os.ReadFile(goldenSegment)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-000001.seg"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	want := goldenRecords()
	if st := d.Stats(); st.Records != uint64(len(want)) || st.Truncated != 0 || st.Bytes != int64(len(golden)) {
		t.Fatalf("stats %+v, want %d records of %d bytes", st, len(want), len(golden))
	}
	got := replayAll(t, d)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay differs from the golden records:\n got %s\nwant %s", mustMarshal(t, got), mustMarshal(t, want))
	}

	// Each record's events as the segment holds them.
	stored := make(map[string][]json.RawMessage)
	for off := int64(0); off < int64(len(golden)); {
		_, next, ok := readFrame(golden, off)
		if !ok {
			t.Fatalf("frame at %d does not read", off)
		}
		var rec struct {
			Finish *struct {
				ID     string            `json:"id"`
				Events []json.RawMessage `json:"events"`
			} `json:"finish"`
		}
		if err := json.Unmarshal(golden[off+frameHeader:next], &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Finish != nil {
			stored[rec.Finish.ID] = rec.Finish.Events
		}
		off = next
	}
	reappended := t.TempDir()
	d2, err := Open(reappended, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range got {
		if err := appendRecord(d2, rec); err != nil {
			t.Fatalf("re-append %s %+v: %v", rec.Kind, rec, err)
		}
	}
	for _, rec := range want {
		if rec.Kind != KindFinish {
			continue
		}
		root := rec.Finish
		if root.DedupOf != "" {
			root = want[1].Finish
		}
		var wantData []string
		for i, raw := range stored[root.ID] {
			wantData = append(wantData, string(raw))
			if ev := root.Events[i]; ev.Seq != uint64(i+1) {
				t.Fatalf("golden event %d of %s has seq %d", i, root.ID, ev.Seq)
			}
		}
		for _, s := range []*Disk{d, d2} {
			evs, err := s.Events(rec.Finish.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) != len(wantData) {
				t.Fatalf("Events(%s): %d events, the record holds %d", rec.Finish.ID, len(evs), len(wantData))
			}
			for i, ev := range evs {
				data, err := ev.Data()
				if err != nil || string(data) != wantData[i] || ev.Seq != uint64(i+1) || ev.Type != root.Events[i].Type {
					t.Errorf("Events(%s)[%d] = %d %s %s (%v), want %d %s %s",
						rec.Finish.ID, i, ev.Seq, ev.Type, data, err, i+1, root.Events[i].Type, wantData[i])
				}
			}
		}
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	rewritten, err := os.ReadFile(filepath.Join(reappended, "wal-000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, golden) {
		t.Fatalf("re-appended segment differs from the golden one:\n got %q\nwant %q", rewritten, golden)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
