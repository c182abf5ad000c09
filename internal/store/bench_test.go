package store

import (
	"encoding/json"
	"fmt"
	"testing"

	"biochip/internal/stream"
)

// scanStreamRecord builds the finish record of a job shaped like
// assaybench's scan-stream jobs: placed, started, six ops bracketed by
// op events, two scans of 200 sites streamed as 64-row scan.rows events
// (about 400 detection rows in 8 events), done — 23 events — and a
// report carrying both detection tables. The events come off a ring,
// as the service's do.
func scanStreamRecord(b testing.TB, id string) FinishRecord {
	b.Helper()
	r := stream.NewRing()
	r.Publish(stream.Event{Type: stream.JobPlaced, Job: &stream.JobInfo{ID: id, Program: "scan-200",
		Seed: 5, Eligible: []string{"default"}}})
	r.Publish(stream.Event{Type: stream.JobStarted, Job: &stream.JobInfo{ID: id, Profile: "default"}})
	var scans [][]stream.Detection
	for op, kind := range []string{"load", "settle", "capture", "probe", "scan", "scan"} {
		r.Publish(stream.Event{Type: stream.OpStarted, T: float64(op), Op: &stream.OpInfo{Index: op, Kind: kind,
			Detail: kind + " (200 cells)"}})
		if kind == "scan" {
			rows := make([]stream.Detection, 200)
			for i := range rows {
				rows[i] = stream.Detection{Col: 3 + 3*(i%30), Row: 3 + 3*(i/30), ID: i, Occupied: i%5 != 0,
					Detected: i%5 != 0 && i%17 != 0, SNR: 700 + float64(i)*1.0123456789}
			}
			scans = append(scans, rows)
			for batch := 0; batch*stream.ChunkRows < len(rows); batch++ {
				chunk := rows[batch*stream.ChunkRows : min((batch+1)*stream.ChunkRows, len(rows))]
				r.Publish(stream.Event{Type: stream.ScanRows, T: float64(op) + 0.5, Scan: &stream.ScanChunk{
					Scan: len(scans) - 1, Batch: batch, Batches: 4, Averaging: 8, Rows: chunk}})
			}
		}
		r.Publish(stream.Event{Type: stream.OpFinished, T: float64(op) + 1, Op: &stream.OpInfo{Index: op,
			Kind: kind, Detail: "ok"}})
	}
	r.Publish(stream.Event{Type: stream.JobDone, T: 6, Job: &stream.JobInfo{ID: id, Duration: 6, Trapped: 160}})
	r.Close()
	report, err := json.Marshal(map[string]any{"program": "scan-200", "duration": 6, "trapped": 160, "scans": scans})
	if err != nil {
		b.Fatal(err)
	}
	return FinishRecord{ID: id, Status: "done", Profile: "default", Eligible: []string{"default"},
		Key: "5f3c0a9e5f3c0a9e", Report: report, Events: r.Events()}
}

// BenchmarkStoreFinish models store.finish_p50_us with fsync off: one
// scan-stream finish record appended to the log.
func BenchmarkStoreFinish(b *testing.B) {
	d, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	rec := scanStreamRecord(b, "a-000001")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.ID = fmt.Sprintf("a-%06d", i+1)
		if err := d.LogFinish(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreEvents reads a scan-stream job's event stream back from
// the log, as each backfill and each cache-hit replay does.
func BenchmarkStoreEvents(b *testing.B) {
	d, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	rec := scanStreamRecord(b, "a-000001")
	if err := d.LogFinish(rec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evs, err := d.Events(rec.ID)
		if err != nil || len(evs) != len(rec.Events) {
			b.Fatalf("%d events, %v", len(evs), err)
		}
	}
}

// scanStreamProgram is a scan-stream job's program as its submit
// record holds it (assaybench's scanProgram).
const scanStreamProgram = `{"name":"scan-stream","ops":[{"op":"load","kind":"viable-cell","count":200},` +
	`{"op":"settle"},{"op":"capture"},{"op":"probe","frequency":10000},{"op":"scan","averaging":8},` +
	`{"op":"scan","averaging":16},{"op":"release"}]}`

// BenchmarkStoreSubmit models store.submit_p50_us: one scan-stream
// submit record appended to the log, with fsync on (a durable daemon's
// -data log) and off (the private log of a daemon without -data).
func BenchmarkStoreSubmit(b *testing.B) {
	for _, bc := range []struct {
		name   string
		noSync bool
	}{{"fsync", false}, {"nosync", true}} {
		b.Run(bc.name, func(b *testing.B) {
			d, err := Open(b.TempDir(), Options{NoSync: bc.noSync})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			recs := make([]SubmitRecord, b.N)
			for i := range recs {
				recs[i] = SubmitRecord{ID: fmt.Sprintf("a-%06d", i+1), Seed: uint64(i), Program: json.RawMessage(scanStreamProgram)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, rec := range recs {
				if err := d.LogSubmit(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreOpen models store.open_ms: Open of a log of 200
// scan-stream jobs, each a submit record and its finish record, as a
// durable daemon's restart opens its data directory.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	d, err := Open(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	rec := scanStreamRecord(b, "a-000001")
	for i := 1; i <= 200; i++ {
		rec.ID = fmt.Sprintf("a-%06d", i)
		if err := d.LogSubmit(SubmitRecord{ID: rec.ID, Seed: uint64(i), Program: json.RawMessage(scanStreamProgram)}); err != nil {
			b.Fatal(err)
		}
		if err := d.LogFinish(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := Open(dir, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if st := d.Stats(); st.Records != 400 {
			b.Fatalf("%d records, want 400", st.Records)
		}
		d.Close()
	}
}
