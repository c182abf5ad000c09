package stream

import (
	"io"
	"testing"
)

// BenchmarkWriteSSE frames one 64-row scan.rows event, published
// through a ring as a job's events are, the event an SSE subscriber of
// a scan job is sent most of.
func BenchmarkWriteSSE(b *testing.B) {
	rows := make([]Detection, ChunkRows)
	for i := range rows {
		rows[i] = Detection{Col: 3 + 3*(i%30), Row: 3 + 3*(i/30), ID: i, Occupied: true, Detected: i%7 != 0,
			SNR: 700 + float64(i)*1.0123456789}
	}
	r := NewRing(0)
	r.Publish(Event{Type: ScanRows, T: 1.5, Scan: &ScanChunk{Batches: 4, Averaging: 8, Rows: rows}})
	ev := r.Events()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteSSE(io.Discard, ev)
	}
}
