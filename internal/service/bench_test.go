package service

import (
	"testing"
	"time"
)

// BenchmarkListNewest times the listing of the newest job, GET
// /v1/assays?order=desc&limit=1 (assayctl watch latest), on a worker
// holding 10,000 finished fake-runner jobs in its private log, built
// before the timer. It pins what listing costs with the job table's
// size (ROADMAP item 3).
func BenchmarkListNewest(b *testing.B) {
	const jobs = 10000
	svc := newFakeService(b, 2, jobs, func(*shard, *Job) {})
	defer svc.Close()
	ids := make([]string, jobs)
	for i := range ids {
		id, err := submit(svc, testProgram(2), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if j, err := svc.Wait(id); err != nil || j.Status != StatusDone {
			b.Fatalf("job %s: %s %v", id, j.Status, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if page := svc.List(ListFilter{Newest: true, Limit: 1}); len(page.Jobs) != 1 || page.Jobs[0].ID != ids[jobs-1] {
			b.Fatalf("newest page %+v, want %s", page.Jobs, ids[jobs-1])
		}
	}
}

// BenchmarkSubmitDone times one job through an in-process worker with
// a fake runner, Submit then WaitTimeout until done: admission, the
// submit record, queue and claim, the finish record and the wake-up,
// without physics.
func BenchmarkSubmitDone(b *testing.B) {
	svc := newFakeService(b, 2, 0, func(*shard, *Job) {})
	defer svc.Close()
	pr := testProgram(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := submit(svc, pr, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if j, done, err := svc.WaitTimeout(id, time.Minute); err != nil || !done || j.Status != StatusDone {
			b.Fatalf("job %s: %s done=%v %v", id, j.Status, done, err)
		}
	}
}
