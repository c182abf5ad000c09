package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"biochip/internal/obs"
	"biochip/internal/service"
	"biochip/internal/stream"
)

// stubBackend is a service.Backend with no jobs but job: Submit
// answers res or err at once, and Get serves job under its ID.
type stubBackend struct {
	res service.SubmitResult
	err error
	job service.Job
}

func (b stubBackend) Submit(service.SubmitRequest) (service.SubmitResult, error) { return b.res, b.err }
func (b stubBackend) Get(id string) (service.Job, bool) {
	return b.job, b.job.ID != "" && id == b.job.ID
}
func (b stubBackend) WaitTimeout(id string, _ time.Duration) (service.Job, bool, error) {
	return service.Job{}, false, fmt.Errorf("stub: unknown job %q", id)
}
func (stubBackend) List(service.ListFilter) service.ListPage           { return service.ListPage{} }
func (stubBackend) SubscribeEvents(string, uint64) (*stream.Sub, bool) { return nil, false }
func (stubBackend) Trace(string) (obs.TraceDoc, bool)                  { return obs.TraceDoc{}, false }
func (stubBackend) Draining() bool                                     { return false }
func (stubBackend) Drained() <-chan struct{}                           { return nil }
func (stubBackend) Drain()                                             {}
func (stubBackend) Close()                                             {}
func (stubBackend) StatsBody() any                                     { return service.Stats{} }
func (stubBackend) HealthBody() (any, bool)                            { return service.Health{Status: "ok"}, true }
func (stubBackend) Metrics() ([]obs.MetricFamily, bool)                { return nil, false }

// serveStub serves b through the worker's handler and returns a Member
// over it.
func serveStub(tb testing.TB, b stubBackend) *Member {
	tb.Helper()
	ts := httptest.NewServer(service.NewHandler(b, obs.NewRegistry().Gauge("stub_sse", "SSE streams.")))
	tb.Cleanup(ts.Close)
	m, err := NewMember(MemberSpec{Name: "w0", Addr: ts.URL, Profiles: die40()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(m.client.CloseIdleConnections)
	return m
}

// scanReport is a report the size of a scan-stream job's (37,181
// bytes, against 37.2 KB): rows of scan detections.
func scanReport() json.RawMessage {
	rows := make([]string, 0, 583)
	for i := 0; i < 583; i++ {
		rows = append(rows, fmt.Sprintf(`{"site":%d,"col":%d,"row":%d,"detected":true,"signal":0.%06d}`,
			i, i%96, i/96, 137*i%1000000))
	}
	return json.RawMessage(`{"program":"scan-stream","scans":[{"rows":[` + strings.Join(rows, ",") + `]}]}`)
}

// BenchmarkForwardHop measures the gateway's forward hop
// (federation.forward_ms): Member.Submit of a 4-cell program to a
// member that serves the worker's handler over a backend accepting at
// once, on one kept-alive connection.
func BenchmarkForwardHop(b *testing.B) {
	m := serveStub(b, stubBackend{res: service.SubmitResult{ID: "a-000001", Eligible: []string{"die40"}}})
	req := service.SubmitRequest{Seed: 7, Program: testProgram(4)}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Submit(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordFetch measures the relay's record fetch
// (federation.get_ms): Member.Job of a done job whose report is a
// scan-stream job's size.
func BenchmarkRecordFetch(b *testing.B) {
	job := service.Job{ID: "a-000001", Status: service.StatusDone, Program: "scan-stream", Seed: 7,
		Eligible: []string{"die40"}, Profile: "die40", Report: scanReport()}
	m := serveStub(b, stubBackend{job: job})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j, err := m.Job(ctx, job.ID); err != nil || len(j.Report) != len(job.Report) {
			b.Fatalf("Job: %v (report %d bytes)", err, len(j.Report))
		}
	}
}
