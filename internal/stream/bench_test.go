package stream

import (
	"io"
	"sync"
	"testing"
)

// scanRows is a 64-row scan.rows batch, the event an SSE subscriber of
// a scan job is sent most of.
func scanRows() Event {
	rows := make([]Detection, ChunkRows)
	for i := range rows {
		rows[i] = Detection{Col: 3 + 3*(i%30), Row: 3 + 3*(i/30), ID: i, Occupied: true, Detected: i%7 != 0,
			SNR: 700 + float64(i)*1.0123456789}
	}
	return Event{Type: ScanRows, T: 1.5, Scan: &ScanChunk{Batches: 4, Averaging: 8, Rows: rows}}
}

// BenchmarkWriteSSE frames one 64-row scan.rows event, published
// through a ring as a job's events are.
func BenchmarkWriteSSE(b *testing.B) {
	r := NewRing()
	r.Publish(scanRows())
	ev := r.Events()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteSSE(io.Discard, ev)
	}
}

// BenchmarkRingFanOut publishes a 22-event stream shaped like a
// scan-stream job's — placed, started, seven ops bracketed by op
// events, five 64-row scan.rows batches across its two scans, done —
// into a ring that 4 subscribers drain concurrently, and reports ns per
// delivered event. It models the ring's share of the per-layer metrics
// stream.lag_p50_ms (publish to delivery) and stream.events_per_job (22
// on scan-stream).
func BenchmarkRingFanOut(b *testing.B) {
	const subscribers = 4
	rows := scanRows()
	stream := []Event{{Type: JobPlaced, Job: &JobInfo{ID: "a-000001", Program: "scan-200", Seed: 5}},
		{Type: JobStarted, Job: &JobInfo{ID: "a-000001", Profile: "default"}}}
	batches := map[int]int{4: 3, 5: 2} // op index → scan.rows batches
	for op, kind := range []string{"load", "settle", "capture", "probe", "scan", "scan", "release"} {
		stream = append(stream, Event{Type: OpStarted, T: float64(op), Op: &OpInfo{Index: op, Kind: kind}})
		for range batches[op] {
			stream = append(stream, rows)
		}
		stream = append(stream, Event{Type: OpFinished, T: float64(op) + 0.5, Op: &OpInfo{Index: op, Kind: kind}})
	}
	stream = append(stream, Event{Type: JobDone, T: 6, Job: &JobInfo{ID: "a-000001", Duration: 6}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRing()
		var wg sync.WaitGroup
		for s := 0; s < subscribers; s++ {
			sub := r.Subscribe(0)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer sub.Cancel()
				for {
					if _, ok := sub.Next(nil); !ok {
						return
					}
				}
			}()
		}
		for _, ev := range stream {
			r.Publish(ev)
		}
		r.Close()
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)*subscribers), "ns/event")
}
